// Package sim provides the virtual asymmetric SoC the evaluation runs on.
//
// The paper evaluates on a 12-core production smartphone (4 little, 6
// middle, 2 big cores) and pins replay threads to physical cores. The Go
// runtime deliberately hides core placement, so this package substitutes a
// *virtual* SoC: each virtual core admits at most one runnable thread at a
// time (a capacity-1 token), threads are goroutines bound to a virtual
// core, and preemption is injected at the tracer's preemption points with
// a configurable probability. Everything the paper's experiments measure —
// which core owns which trace block, preemption between allocate and
// confirm, 30+ distinct writer threads per core (Fig. 6) — depends only on
// this logical structure, not on physical placement (see DESIGN.md,
// "Faithfulness notes").
//
// Contract: a virtual core runs at most one thread at a time
// (TestCoreExclusivity); a preemption point yields the core, and a
// preemption-disabled scope is never preempted (TestPreemptionYieldsCore,
// TestDisablePreemption); a hot-unplugged core's unbound threads migrate
// and its bound threads starve until replug (TestHotplugMigratesUnboundThreads,
// TestHotplugStarvesBoundThread).
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"btrace/internal/tracer"
)

// CoreKind classifies a core in an ARM DynamIQ-style asymmetric topology.
type CoreKind uint8

// Core kinds, ordered by capacity.
const (
	Little CoreKind = iota
	Middle
	Big
)

// String returns the kind name.
func (k CoreKind) String() string {
	switch k {
	case Little:
		return "little"
	case Middle:
		return "middle"
	default:
		return "big"
	}
}

// Topology describes a machine's core mix.
type Topology struct {
	Little, Middle, Big int
}

// Phone12 is the paper's evaluation device [24]: cores 0-3 little, 4-9
// middle, 10-11 big (Fig. 4 caption).
func Phone12() Topology { return Topology{Little: 4, Middle: 6, Big: 2} }

// Server returns a flat many-core topology for the §7 server-scale
// scenario.
func Server(cores int) Topology { return Topology{Middle: cores} }

// Cores returns the total core count.
func (t Topology) Cores() int { return t.Little + t.Middle + t.Big }

// Kind returns the kind of core id under this topology.
func (t Topology) Kind(id int) CoreKind {
	switch {
	case id < t.Little:
		return Little
	case id < t.Little+t.Middle:
		return Middle
	default:
		return Big
	}
}

// Machine is a virtual SoC.
type Machine struct {
	topo  Topology
	cores []*Core
	hp    hotplugState
}

// Core is one virtual core. Its token channel admits one running thread
// at a time; waiting threads queue on the channel like a run queue.
type Core struct {
	id    int
	kind  CoreKind
	token chan struct{}
	// scheduled counts thread dispatches (token acquisitions).
	scheduled atomic.Uint64
	// preemptions counts mid-write preemptions delivered on this core.
	preemptions atomic.Uint64
}

// ID returns the core's id.
func (c *Core) ID() int { return c.id }

// Kind returns the core's kind.
func (c *Core) Kind() CoreKind { return c.kind }

// Scheduled returns how many times a thread was dispatched on the core.
func (c *Core) Scheduled() uint64 { return c.scheduled.Load() }

// Preemptions returns how many mid-write preemptions occurred on the core.
func (c *Core) Preemptions() uint64 { return c.preemptions.Load() }

// NewMachine builds a machine with the given topology.
func NewMachine(topo Topology) (*Machine, error) {
	n := topo.Cores()
	if n <= 0 || n > 255 {
		return nil, fmt.Errorf("sim: invalid topology %+v", topo)
	}
	m := &Machine{topo: topo, cores: make([]*Core, n)}
	m.hp.init()
	for i := range m.cores {
		m.cores[i] = &Core{
			id:    i,
			kind:  topo.Kind(i),
			token: make(chan struct{}, 1),
		}
		m.cores[i].token <- struct{}{}
	}
	return m, nil
}

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core id.
func (m *Machine) Core(id int) *Core { return m.cores[id] }

// Topology returns the machine's topology.
func (m *Machine) Topology() Topology { return m.topo }

// FaultAction is a FaultController's verdict for one preemption point.
type FaultAction uint8

// Fault actions a controller may request at a preemption point.
const (
	// FaultNone leaves the point to the thread's ordinary probabilistic
	// preemption.
	FaultNone FaultAction = iota
	// FaultPreempt forces the thread to be scheduled out and immediately
	// recontend for its core — a targeted preemption regardless of the
	// thread's configured probability.
	FaultPreempt
	// FaultStall forces the thread off its core and parks it in the
	// controller's Stall until the fault clears — a writer frozen (or
	// killed) while holding unconfirmed bytes.
	FaultStall
)

// FaultController injects scheduling faults at tracer preemption points.
// At is consulted before the thread's probabilistic preemption; returning
// FaultStall makes the thread release its core and call Stall, which
// blocks until the controller lets the thread resume. Implementations
// must be safe for concurrent use by all threads of a machine.
type FaultController interface {
	At(t *Thread, p tracer.PreemptPoint) FaultAction
	Stall(t *Thread, p tracer.PreemptPoint)
}

// Thread is a simulated execution context: a goroutine bound to one
// virtual core that can be preempted at tracer preemption points. It
// implements tracer.Proc.
//
// A Thread is driven by exactly one goroutine.
type Thread struct {
	m    *Machine
	id   int
	core int

	rng *rand.Rand
	// preemptProb is the probability that a preemption point actually
	// preempts the thread.
	preemptProb float64
	// fc, when set, injects targeted faults at preemption points.
	fc FaultController

	nopreempt  int // preemption-disable nesting
	holding    bool
	bound      bool
	preempted  uint64
	stalls     uint64
	migrations uint64
}

// ThreadConfig configures NewThread.
type ThreadConfig struct {
	// ID is the workload-unique thread id.
	ID int
	// Core is the virtual core the thread is bound to.
	Core int
	// PreemptProb is the probability of preemption at each preemption
	// point while the thread holds its core.
	PreemptProb float64
	// Seed makes the thread's preemption decisions deterministic.
	Seed int64
}

// NewThread creates a thread on m. The thread starts descheduled; it
// acquires its core on the first Run/Acquire.
func (m *Machine) NewThread(cfg ThreadConfig) (*Thread, error) {
	if cfg.Core < 0 || cfg.Core >= len(m.cores) {
		return nil, fmt.Errorf("sim: core %d out of range [0,%d)", cfg.Core, len(m.cores))
	}
	if cfg.PreemptProb < 0 || cfg.PreemptProb > 1 {
		return nil, fmt.Errorf("sim: preempt probability %v out of [0,1]", cfg.PreemptProb)
	}
	return &Thread{
		m:           m,
		id:          cfg.ID,
		core:        cfg.Core,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		preemptProb: cfg.PreemptProb,
	}, nil
}

// Core implements tracer.Proc.
func (t *Thread) Core() int { return t.core }

// Thread implements tracer.Proc.
func (t *Thread) Thread() int { return t.id }

// Preempted returns how many times this thread was scheduled out at a
// preemption point.
func (t *Thread) Preempted() uint64 { return t.preempted }

// Stalls returns how many times a FaultController parked this thread.
func (t *Thread) Stalls() uint64 { return t.stalls }

// SetFaultController installs (or, with nil, removes) a fault controller
// on the thread. Must be called before the thread's driving goroutine
// starts, or from that goroutine.
func (t *Thread) SetFaultController(fc FaultController) { t.fc = fc }

// Acquire schedules the thread onto its core, blocking until the core is
// free. If the core was hot-unplugged, an unbound thread is migrated to
// an online core first, while a bound thread waits (starves) until its
// core returns. It must be balanced by Release.
func (t *Thread) Acquire() {
	if t.holding {
		return
	}
	core := t.admit()
	c := t.m.cores[core]
	<-c.token
	c.scheduled.Add(1)
	t.holding = true
}

// Release deschedules the thread, letting another thread of the core run.
func (t *Thread) Release() {
	if !t.holding {
		return
	}
	t.holding = false
	t.m.cores[t.core].token <- struct{}{}
}

// MaybePreempt implements tracer.Proc: with the configured probability the
// thread is scheduled out (core released and re-acquired), exactly the
// §2.2 Observation 2 hazard — the thread resumes on the same core with
// other threads possibly having run in between.
func (t *Thread) MaybePreempt(p tracer.PreemptPoint) {
	if !t.holding || t.nopreempt > 0 {
		return
	}
	if t.fc != nil {
		switch t.fc.At(t, p) {
		case FaultPreempt:
			t.preempted++
			t.m.cores[t.core].preemptions.Add(1)
			t.Release()
			t.Acquire()
			return
		case FaultStall:
			t.preempted++
			t.stalls++
			t.m.cores[t.core].preemptions.Add(1)
			t.Release()
			t.fc.Stall(t, p)
			t.Acquire()
			return
		}
	}
	if t.preemptProb == 0 || t.rng.Float64() >= t.preemptProb {
		return
	}
	t.preempted++
	c := t.m.cores[t.core]
	c.preemptions.Add(1)
	t.Release()
	t.Acquire()
}

// DisablePreemption implements tracer.Proc, mirroring the kernel-side
// preempt_disable ftrace relies on.
func (t *Thread) DisablePreemption() func() {
	t.nopreempt++
	return func() { t.nopreempt-- }
}

// MigrateTo rebinds the thread to another core (used by the server-scale
// scenario of §7 where tasks migrate frequently). The thread must not be
// holding its current core.
func (t *Thread) MigrateTo(core int) error {
	if t.holding {
		return fmt.Errorf("sim: cannot migrate while scheduled")
	}
	if core < 0 || core >= len(t.m.cores) {
		return fmt.Errorf("sim: core %d out of range", core)
	}
	if core != t.core {
		t.migrations++
	}
	t.core = core
	return nil
}

// Migrations returns how many times the thread changed cores.
func (t *Thread) Migrations() uint64 { return t.migrations }

// Run schedules the thread and executes fn while it holds the core,
// releasing afterwards.
func (t *Thread) Run(fn func(p tracer.Proc)) {
	t.Acquire()
	defer t.Release()
	fn(t)
}

// Exec runs fn concurrently on a set of freshly created threads
// distributed round-robin over the machine's cores, and waits for all of
// them. It is a convenience for tests and examples.
func (m *Machine) Exec(threads int, preemptProb float64, fn func(t *Thread)) error {
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		th, err := m.NewThread(ThreadConfig{
			ID: i, Core: i % len(m.cores), PreemptProb: preemptProb, Seed: int64(i) + 1,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, th *Thread) {
			defer wg.Done()
			th.Acquire()
			defer th.Release()
			fn(th)
		}(i, th)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

var _ tracer.Proc = (*Thread)(nil)
