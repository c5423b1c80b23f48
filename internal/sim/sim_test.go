package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btrace/internal/tracer"
)

func TestTopology(t *testing.T) {
	topo := Phone12()
	if topo.Cores() != 12 {
		t.Fatalf("Phone12 cores = %d", topo.Cores())
	}
	wants := map[int]CoreKind{0: Little, 3: Little, 4: Middle, 9: Middle, 10: Big, 11: Big}
	for id, want := range wants {
		if got := topo.Kind(id); got != want {
			t.Errorf("Kind(%d) = %v, want %v", id, got, want)
		}
	}
	if Server(64).Cores() != 64 {
		t.Error("Server(64)")
	}
	for k, s := range map[CoreKind]string{Little: "little", Middle: "middle", Big: "big"} {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(Topology{}); err == nil {
		t.Error("empty topology: expected error")
	}
	if _, err := NewMachine(Topology{Middle: 300}); err == nil {
		t.Error("too many cores: expected error")
	}
	m, err := NewMachine(Phone12())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 12 {
		t.Errorf("Cores = %d", m.Cores())
	}
	if m.Core(11).Kind() != Big || m.Core(11).ID() != 11 {
		t.Errorf("core 11: %v/%d", m.Core(11).Kind(), m.Core(11).ID())
	}
}

func TestThreadValidation(t *testing.T) {
	m, _ := NewMachine(Phone12())
	if _, err := m.NewThread(ThreadConfig{Core: 12}); err == nil {
		t.Error("core out of range: expected error")
	}
	if _, err := m.NewThread(ThreadConfig{Core: 0, PreemptProb: 1.5}); err == nil {
		t.Error("bad probability: expected error")
	}
}

// TestCoreExclusivity: at most one thread of a core runs at a time.
func TestCoreExclusivity(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 2})
	var onCore [2]atomic.Int32
	var maxSeen [2]atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		th, err := m.NewThread(ThreadConfig{ID: i, Core: i % 2, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				th.Run(func(p tracer.Proc) {
					c := p.Core()
					n := onCore[c].Add(1)
					if n > maxSeen[c].Load() {
						maxSeen[c].Store(n)
					}
					onCore[c].Add(-1)
				})
			}
		}(th)
	}
	wg.Wait()
	for c := 0; c < 2; c++ {
		if maxSeen[c].Load() > 1 {
			t.Errorf("core %d admitted %d concurrent threads", c, maxSeen[c].Load())
		}
		if m.Core(c).Scheduled() == 0 {
			t.Errorf("core %d never scheduled", c)
		}
	}
}

// TestPreemptionYieldsCore: a preempted thread releases the core so
// another thread can run in between — the exact mid-write interleaving the
// tracers must survive.
func TestPreemptionYieldsCore(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 1})
	t1, _ := m.NewThread(ThreadConfig{ID: 1, Core: 0, PreemptProb: 1, Seed: 1})
	t2, _ := m.NewThread(ThreadConfig{ID: 2, Core: 0, Seed: 2})

	t1.Acquire()
	ran := make(chan struct{})
	go func() {
		t2.Run(func(tracer.Proc) { close(ran) })
	}()
	// t1 preempts with probability 1: the core is released and
	// re-acquired, giving t2 a chance to run (it may also run right after
	// t1's final release; either way it must complete).
	t1.MaybePreempt(tracer.PreemptBeforeConfirm)
	t1.Release()
	<-ran
	if t1.Preempted() != 1 {
		t.Errorf("Preempted = %d, want 1", t1.Preempted())
	}
	if m.Core(0).Preemptions() != 1 {
		t.Errorf("core preemptions = %d", m.Core(0).Preemptions())
	}
}

func TestDisablePreemption(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 1})
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 0, PreemptProb: 1, Seed: 1})
	th.Acquire()
	defer th.Release()
	restore := th.DisablePreemption()
	th.MaybePreempt(tracer.PreemptBeforeCopy)
	if th.Preempted() != 0 {
		t.Error("preempted despite disable")
	}
	restore()
	th.MaybePreempt(tracer.PreemptBeforeCopy)
	if th.Preempted() != 1 {
		t.Error("preemption did not resume after enable")
	}
}

func TestMigration(t *testing.T) {
	m, _ := NewMachine(Phone12())
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 0})
	th.Acquire()
	if err := th.MigrateTo(5); err == nil {
		t.Error("migration while scheduled: expected error")
	}
	th.Release()
	if err := th.MigrateTo(99); err == nil {
		t.Error("core out of range: expected error")
	}
	if err := th.MigrateTo(5); err != nil {
		t.Fatal(err)
	}
	if th.Core() != 5 || th.Migrations() != 1 {
		t.Errorf("core=%d migrations=%d", th.Core(), th.Migrations())
	}
	if err := th.MigrateTo(5); err != nil || th.Migrations() != 1 {
		t.Error("no-op migration counted")
	}
}

func TestExec(t *testing.T) {
	m, _ := NewMachine(Phone12())
	var count atomic.Int64
	if err := m.Exec(48, 0.1, func(th *Thread) {
		count.Add(1)
		th.MaybePreempt(tracer.PreemptOutside)
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 48 {
		t.Errorf("ran %d threads, want 48", count.Load())
	}
}

// TestIdempotentAcquireRelease: double Acquire/Release are safe.
func TestIdempotentAcquireRelease(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 1})
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 0})
	th.Acquire()
	th.Acquire()
	th.Release()
	th.Release()
	// The core must be available again.
	th2, _ := m.NewThread(ThreadConfig{ID: 2, Core: 0})
	done := make(chan struct{})
	go func() { th2.Run(func(tracer.Proc) {}); close(done) }()
	<-done
}

func TestHotplugMigratesUnboundThreads(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 3})
	if !m.Online(2) {
		t.Fatal("cores start online")
	}
	if err := m.SetOnline(99, false); err == nil {
		t.Fatal("out of range core")
	}
	if err := m.SetOnline(2, false); err != nil {
		t.Fatal(err)
	}
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 2})
	th.Run(func(p tracer.Proc) {
		if p.Core() == 2 {
			t.Error("ran on an offline core")
		}
	})
	if th.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", th.Migrations())
	}
	// Back online: a fresh thread stays put.
	if err := m.SetOnline(2, true); err != nil {
		t.Fatal(err)
	}
	th2, _ := m.NewThread(ThreadConfig{ID: 2, Core: 2})
	th2.Run(func(p tracer.Proc) {
		if p.Core() != 2 {
			t.Error("migrated despite online core")
		}
	})
}

// hangReport bounds a wait that must end. A loaded box only makes the
// wait longer; the bound is there to report a hang, not to time the
// scheduler. (A short window that must stay quiet is the other way
// round: it can miss a bug, never invent one.)
const hangReport = 2 * time.Minute

func TestHotplugStarvesBoundThread(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 2})
	if err := m.SetOnline(1, false); err != nil {
		t.Fatal(err)
	}
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 1})
	th.SetBound(true)
	if !th.Bound() {
		t.Fatal("Bound flag")
	}
	ran := make(chan int, 1)
	go func() {
		th.Run(func(p tracer.Proc) { ran <- p.Core() })
	}()
	// The bound thread must be starving, not migrating.
	select {
	case c := <-ran:
		t.Fatalf("bound thread ran on core %d while its core was offline", c)
	case <-time.After(50 * time.Millisecond):
	}
	// Re-plugging the core releases it (the fix for the §6 defect).
	if err := m.SetOnline(1, true); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-ran:
		if c != 1 {
			t.Fatalf("bound thread ran on core %d, want 1", c)
		}
	case <-time.After(hangReport):
		t.Fatal("hang: bound thread never ran after replug")
	}
	if th.Migrations() != 0 {
		t.Error("bound thread migrated")
	}
}

func TestHotplugAllCoresOffline(t *testing.T) {
	m, _ := NewMachine(Topology{Middle: 2})
	m.SetOnline(0, false)
	m.SetOnline(1, false)
	th, _ := m.NewThread(ThreadConfig{ID: 1, Core: 0})
	ran := make(chan struct{})
	go func() { th.Run(func(tracer.Proc) {}); close(ran) }()
	select {
	case <-ran:
		t.Fatal("ran with all cores offline")
	case <-time.After(50 * time.Millisecond):
	}
	m.SetOnline(1, true)
	select {
	case <-ran:
	case <-time.After(hangReport):
		t.Fatal("hang: never resumed after replug")
	}
}
