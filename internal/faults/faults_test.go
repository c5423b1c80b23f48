package faults_test

import (
	"reflect"
	"sync"
	"testing"

	"btrace/internal/faults"
	"btrace/internal/sim"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

func TestPreemptStormForcesPreemptions(t *testing.T) {
	m, err := sim.NewMachine(sim.Topology{Middle: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5)
	storm := in.PreemptStorm(1.0) // every window point preempts
	th, err := m.NewThread(sim.ThreadConfig{ID: 3, Core: 0})
	if err != nil {
		t.Fatal(err)
	}
	th.SetFaultController(storm)
	th.Acquire()
	th.MaybePreempt(tracer.PreemptBeforeCopy)
	th.MaybePreempt(tracer.PreemptBeforeConfirm)
	th.MaybePreempt(tracer.PreemptOutside) // outside the window: untouched
	th.Release()
	if storm.Fired() != 2 || th.Preempted() != 2 {
		t.Fatalf("fired=%d preempted=%d", storm.Fired(), th.Preempted())
	}
	if len(in.Schedule("storm/t3/before-copy")) != 1 {
		t.Fatalf("schedule: %v", in.Hooks())
	}
	// Preemption-disable scopes shield the thread from the storm, as they
	// do from ordinary preemption.
	restore := th.DisablePreemption()
	th.MaybePreempt(tracer.PreemptBeforeCopy)
	restore()
	if storm.Fired() != 2 {
		t.Fatal("storm fired inside a preemption-disable scope")
	}
}

func TestStragglerStallAndRelease(t *testing.T) {
	m, err := sim.NewMachine(sim.Topology{Middle: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5)
	str := in.Straggler(0, 2)
	th, err := m.NewThread(sim.ThreadConfig{ID: 0, Core: 0})
	if err != nil {
		t.Fatal(err)
	}
	th.SetFaultController(str)

	var wg sync.WaitGroup
	wg.Add(1)
	stalledAt := make(chan struct{})
	go func() {
		defer wg.Done()
		th.Acquire()
		defer th.Release()
		th.MaybePreempt(tracer.PreemptBeforeConfirm) // hit 1: armed, no stall
		close(stalledAt)
		th.MaybePreempt(tracer.PreemptBeforeConfirm) // hit 2: stalls until release
	}()
	<-stalledAt
	for !str.Stalled() { // the thread is parked off its core
	}
	// While the straggler is parked, its core is free for others.
	other, err := m.NewThread(sim.ThreadConfig{ID: 1, Core: 0})
	if err != nil {
		t.Fatal(err)
	}
	other.Acquire()
	other.Release()
	str.Release()
	str.Release() // idempotent
	wg.Wait()
	if !str.EverStalled() || str.Stalled() {
		t.Fatalf("ever=%v stalled=%v", str.EverStalled(), str.Stalled())
	}
	if th.Stalls() != 1 {
		t.Fatalf("stalls = %d", th.Stalls())
	}
}

// stubController always returns a fixed action.
type stubController struct {
	action  sim.FaultAction
	stalled bool
}

func (c *stubController) At(*sim.Thread, tracer.PreemptPoint) sim.FaultAction { return c.action }
func (c *stubController) Stall(*sim.Thread, tracer.PreemptPoint)              { c.stalled = true }

func TestChainRoutesStall(t *testing.T) {
	m, _ := sim.NewMachine(sim.Topology{Middle: 1})
	th, _ := m.NewThread(sim.ThreadConfig{ID: 0, Core: 0})
	none := &stubController{action: sim.FaultNone}
	staller := &stubController{action: sim.FaultStall}
	ch := faults.NewChain(none, staller)
	if a := ch.At(th, tracer.PreemptBeforeConfirm); a != sim.FaultStall {
		t.Fatalf("chain action: %v", a)
	}
	ch.Stall(th, tracer.PreemptBeforeConfirm)
	if !staller.stalled || none.stalled {
		t.Fatalf("stall routed wrong: staller=%v none=%v", staller.stalled, none.stalled)
	}
}

// countSink is a distributor.Replica that only counts what it is
// handed.
type countSink struct{ events uint64 }

func (s *countSink) AppendBatch(b *store.Batch, rows []int32) error {
	s.events += uint64(b.Len())
	return nil
}
func (s *countSink) WriteErr() error { return nil }

// TestFlakyStoreDeterministicSchedule: one seed, one append-failure
// schedule; a failed append reaches nothing below and is not sticky.
func TestFlakyStoreDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []string {
		in := faults.New(seed)
		dst := &countSink{}
		f := in.FlakyStore(dst, 0.5)
		var batch store.Batch
		batch.Encode(make([]tracer.Entry, 8))
		for i := 0; i < 64; i++ {
			f.AppendBatch(&batch, nil)
		}
		appends, events, failures := f.Stats()
		if appends != 64 || events != dst.events || events != (appends-failures)*8 {
			t.Fatalf("appends=%d events=%d failures=%d sink=%d", appends, events, failures, dst.events)
		}
		if f.WriteErr() != nil {
			t.Fatalf("injected failure turned sticky: %v", f.WriteErr())
		}
		return in.Schedule("store/err")
	}
	a, b := run(1), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("probability 0.5 over 64 appends fired nothing")
	}
	if c := run(2); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules: %v", a)
	}
}

func TestHotplugRecordsSchedule(t *testing.T) {
	m, _ := sim.NewMachine(sim.Topology{Middle: 2})
	in := faults.New(1)
	hp := in.Hotplug(m)
	if err := hp.Unplug(1); err != nil {
		t.Fatal(err)
	}
	if m.Online(1) {
		t.Fatal("core still online")
	}
	if err := hp.Replug(1); err != nil {
		t.Fatal(err)
	}
	if !m.Online(1) {
		t.Fatal("core still offline")
	}
	want := []string{"unplug c1", "replug c1"}
	if got := in.Schedule("hotplug"); !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
}
