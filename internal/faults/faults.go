package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"btrace/internal/sim"
	"btrace/internal/tracer"
)

// ErrInjected marks every failure an injected fault produces.
var ErrInjected = errors.New("faults: injected failure")

// Injector is the root of a fault plan. All sub-faults created from one
// Injector share its seed and record their decisions in its per-hook
// schedule log. An Injector is safe for concurrent use.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rngs  map[string]*rand.Rand
	count map[string]uint64
	sched map[string][]string
}

// New creates an Injector rooted at seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		rngs:  map[string]*rand.Rand{},
		count: map[string]uint64{},
		sched: map[string][]string{},
	}
}

// Seed returns the root seed.
func (in *Injector) Seed() int64 { return in.seed }

// hookRNG returns the named hook's PRNG stream, creating it on first use
// from the root seed and the hook name. Callers must hold in.mu.
func (in *Injector) hookRNG(hook string) *rand.Rand {
	r, ok := in.rngs[hook]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(hook))
		r = rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
		in.rngs[hook] = r
	}
	return r
}

// decide draws the hook's next decision with probability prob and logs a
// fire in the hook's schedule.
func (in *Injector) decide(hook string, prob float64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.count[hook]
	in.count[hook]++
	fire := in.hookRNG(hook).Float64() < prob
	if fire {
		in.sched[hook] = append(in.sched[hook], fmt.Sprintf("#%d", n))
	}
	return fire
}

// record appends an unconditional event to the hook's schedule.
func (in *Injector) record(hook, event string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sched[hook] = append(in.sched[hook], event)
}

// Schedule returns a copy of the named hook's recorded schedule: for
// probabilistic hooks the fired invocation indices, for event hooks the
// recorded events, in order.
func (in *Injector) Schedule(hook string) []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.sched[hook]...)
}

// Hooks returns the sorted names of all hooks that recorded at least one
// schedule entry.
func (in *Injector) Hooks() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	hooks := make([]string, 0, len(in.sched))
	for h := range in.sched {
		hooks = append(hooks, h)
	}
	sort.Strings(hooks)
	return hooks
}

// pointName names a preemption point for hook identifiers.
func pointName(p tracer.PreemptPoint) string {
	switch p {
	case tracer.PreemptBeforeCopy:
		return "before-copy"
	case tracer.PreemptBeforeConfirm:
		return "before-confirm"
	default:
		return "outside"
	}
}

// PreemptStorm is a sim.FaultController that forces preemptions inside
// the allocate→confirm window (the §2.2 Observation 2 hazard) with a
// per-point probability. Each (thread, point) pair draws from its own
// deterministic stream.
type PreemptStorm struct {
	in     *Injector
	prob   float64
	window map[tracer.PreemptPoint]bool
	fired  atomic.Uint64
}

// PreemptStorm creates a storm firing with probability prob at the given
// points; with no points it targets the allocate→confirm window
// (PreemptBeforeCopy and PreemptBeforeConfirm).
func (in *Injector) PreemptStorm(prob float64, points ...tracer.PreemptPoint) *PreemptStorm {
	if len(points) == 0 {
		points = []tracer.PreemptPoint{tracer.PreemptBeforeCopy, tracer.PreemptBeforeConfirm}
	}
	w := map[tracer.PreemptPoint]bool{}
	for _, p := range points {
		w[p] = true
	}
	return &PreemptStorm{in: in, prob: prob, window: w}
}

// At implements sim.FaultController.
func (s *PreemptStorm) At(t *sim.Thread, p tracer.PreemptPoint) sim.FaultAction {
	if !s.window[p] {
		return sim.FaultNone
	}
	if s.in.decide(fmt.Sprintf("storm/t%d/%s", t.Thread(), pointName(p)), s.prob) {
		s.fired.Add(1)
		return sim.FaultPreempt
	}
	return sim.FaultNone
}

// Stall implements sim.FaultController; a storm never stalls.
func (s *PreemptStorm) Stall(*sim.Thread, tracer.PreemptPoint) {}

// Fired returns how many preemptions the storm forced.
func (s *PreemptStorm) Fired() uint64 { return s.fired.Load() }

// Straggler is a sim.FaultController that freezes one thread at a
// preemption point while it holds unconfirmed bytes — the stalled (or
// killed) writer of §3.4 whose candidates other producers must skip. The
// thread parks off its core until Release; a straggler that is never
// released during the measurement window models a killed writer.
type Straggler struct {
	in     *Injector
	thread int
	point  tracer.PreemptPoint
	after  int

	mu       sync.Mutex
	hits     int
	armed    bool
	released bool
	stalled  bool
	ever     bool
	release  chan struct{}
}

// Straggler freezes thread threadID the afterHits-th time it reaches
// PreemptBeforeConfirm (allocation done, confirmation pending).
func (in *Injector) Straggler(threadID, afterHits int) *Straggler {
	return &Straggler{
		in:      in,
		thread:  threadID,
		point:   tracer.PreemptBeforeConfirm,
		after:   afterHits,
		armed:   true,
		release: make(chan struct{}),
	}
}

// At implements sim.FaultController.
func (s *Straggler) At(t *sim.Thread, p tracer.PreemptPoint) sim.FaultAction {
	if t.Thread() != s.thread || p != s.point {
		return sim.FaultNone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	if !s.armed || s.released || s.hits != s.after {
		return sim.FaultNone
	}
	s.armed = false
	s.in.record(fmt.Sprintf("straggler/t%d", s.thread), fmt.Sprintf("stall@%s#%d", pointName(p), s.hits))
	return sim.FaultStall
}

// Stall implements sim.FaultController: parks the (descheduled) thread
// until Release.
func (s *Straggler) Stall(*sim.Thread, tracer.PreemptPoint) {
	s.mu.Lock()
	s.stalled = true
	s.ever = true
	s.mu.Unlock()
	<-s.release
	s.mu.Lock()
	s.stalled = false
	s.mu.Unlock()
}

// Release unfreezes the straggler (idempotent).
func (s *Straggler) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	close(s.release)
	s.in.record(fmt.Sprintf("straggler/t%d", s.thread), "release")
}

// Stalled reports whether the thread is currently parked.
func (s *Straggler) Stalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalled
}

// EverStalled reports whether the fault ever engaged.
func (s *Straggler) EverStalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ever
}

// Chain composes fault controllers: At returns the first non-FaultNone
// action and routes the subsequent Stall to the controller that asked
// for it.
type Chain struct {
	cs []sim.FaultController

	mu      sync.Mutex
	staller map[int]sim.FaultController
}

// NewChain composes controllers, consulted in order.
func NewChain(cs ...sim.FaultController) *Chain {
	return &Chain{cs: cs, staller: map[int]sim.FaultController{}}
}

// At implements sim.FaultController.
func (c *Chain) At(t *sim.Thread, p tracer.PreemptPoint) sim.FaultAction {
	for _, fc := range c.cs {
		switch a := fc.At(t, p); a {
		case sim.FaultNone:
		case sim.FaultStall:
			c.mu.Lock()
			c.staller[t.Thread()] = fc
			c.mu.Unlock()
			return a
		default:
			return a
		}
	}
	return sim.FaultNone
}

// Stall implements sim.FaultController.
func (c *Chain) Stall(t *sim.Thread, p tracer.PreemptPoint) {
	c.mu.Lock()
	fc := c.staller[t.Thread()]
	delete(c.staller, t.Thread())
	c.mu.Unlock()
	if fc != nil {
		fc.Stall(t, p)
	}
}

// Hotplug drives CPU hot-unplug events against a machine, recording them
// in the injector's schedule so a scenario's hotplug timeline is part of
// its reproducible plan.
type Hotplug struct {
	in *Injector
	m  *sim.Machine
}

// Hotplug creates a hotplug driver for m.
func (in *Injector) Hotplug(m *sim.Machine) *Hotplug {
	return &Hotplug{in: in, m: m}
}

// Unplug takes the core offline.
func (h *Hotplug) Unplug(core int) error {
	h.in.record("hotplug", fmt.Sprintf("unplug c%d", core))
	return h.m.SetOnline(core, false)
}

// Replug brings the core back online.
func (h *Hotplug) Replug(core int) error {
	h.in.record("hotplug", fmt.Sprintf("replug c%d", core))
	return h.m.SetOnline(core, true)
}

var (
	_ sim.FaultController = (*PreemptStorm)(nil)
	_ sim.FaultController = (*Straggler)(nil)
	_ sim.FaultController = (*Chain)(nil)
)
