package faults_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"btrace/internal/collect"
	"btrace/internal/faults"
	"btrace/internal/sim"
	"btrace/internal/tracer"
)

// scriptedCursor replays fixed batches, one per Next (as far as the
// reader's batch has room), handing each entry
// a payload out of an arena it scribbles over on the following call —
// the cursor ownership contract at its most hostile: whoever retains a
// borrowed payload reads garbage (see payloadOK).
type scriptedCursor struct {
	polls [][]tracer.Entry
	rest  []tracer.Entry // what of the current batch the last read had no room for
	arena []byte
}

func (s *scriptedCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	for i := range s.arena {
		s.arena[i] = 0xEE
	}
	s.arena = s.arena[:0]
	if len(s.rest) == 0 && len(s.polls) > 0 && len(batch) > 0 {
		s.rest, s.polls = s.polls[0], s.polls[1:]
	}
	n := copy(batch, s.rest)
	s.rest = s.rest[n:]
	for i := range batch[:n] {
		at := len(s.arena)
		s.arena = append(s.arena, byte(batch[i].Stamp), byte(batch[i].Stamp>>8))
		batch[i].Payload = s.arena[at:len(s.arena):len(s.arena)]
	}
	return n, 0, nil
}

func (s *scriptedCursor) Close() error { return nil }

// payloadOK reports whether e still carries the payload scriptedCursor
// gave it.
func payloadOK(e tracer.Entry) bool {
	return len(e.Payload) == 2 && e.Payload[0] == byte(e.Stamp) && e.Payload[1] == byte(e.Stamp>>8)
}

func entries(stamps ...uint64) []tracer.Entry {
	es := make([]tracer.Entry, len(stamps))
	for i, s := range stamps {
		es[i] = tracer.Entry{Stamp: s, TS: s}
	}
	return es
}

// TestFlakyCursorDeterministicSchedule: the same seed plans the same
// fault schedule; a different seed plans a different one.
func TestFlakyCursorDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []string {
		in := faults.New(seed)
		f := in.FlakyCursor(&scriptedCursor{}, 0.5, 0)
		batch := make([]tracer.Entry, 8)
		for i := 0; i < 64; i++ {
			f.Next(batch)
		}
		return in.Schedule("poller/err")
	}
	a, b := run(1), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("probability 0.5 over 64 polls fired nothing")
	}
	if c := run(2); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules: %v", a)
	}
}

// TestFlakyCursorNeverLosesEvents: whatever mix of errors and tears is
// injected, every source event is eventually delivered exactly once, in
// order — also when the batch is too small for what a tear held back,
// and although the source reuses its arena under the held-back half.
func TestFlakyCursorNeverLosesEvents(t *testing.T) {
	src := &scriptedCursor{polls: [][]tracer.Entry{
		entries(1, 2, 3, 4),
		entries(5, 6),
		entries(7, 8, 9, 10, 11),
	}}
	in := faults.New(7)
	f := in.FlakyCursor(src, 0.3, 0.8)
	var got []uint64
	batch := make([]tracer.Entry, 4) // the third read's 5 events do not fit
	for i := 0; i < 200 && len(got) < 11; i++ {
		n, _, err := f.Next(batch)
		if err != nil {
			continue
		}
		for _, e := range batch[:n] {
			if !payloadOK(e) {
				t.Fatalf("stamp %d delivered with payload %x: a torn half kept a borrowed slice", e.Stamp, e.Payload)
			}
			got = append(got, e.Stamp)
		}
	}
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	_, failures, tears := f.Stats()
	if failures == 0 || tears == 0 {
		t.Fatalf("faults not exercised: failures=%d tears=%d", failures, tears)
	}
}

func TestFlakyCursorWedgeHeal(t *testing.T) {
	src := &scriptedCursor{polls: [][]tracer.Entry{entries(1)}}
	in := faults.New(1)
	f := in.FlakyCursor(src, 0, 0)
	batch := make([]tracer.Entry, 8)
	f.Wedge()
	if _, _, err := f.Next(batch); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("wedged read: %v", err)
	}
	f.Heal()
	n, _, err := f.Next(batch)
	if err != nil || n != 1 {
		t.Fatalf("healed read: %d %v", n, err)
	}
	if sched := in.Schedule("poller"); !reflect.DeepEqual(sched, []string{"wedge", "heal"}) {
		t.Fatalf("schedule: %v", sched)
	}
}

func TestFlakySinkTransitions(t *testing.T) {
	var dst bytes.Buffer
	in := faults.New(1)
	s := in.FlakySink(&dst, 2, 4)
	payload := []byte("rec")
	// Writes 1-2 transient, 3-4 succeed, 5+ permanent.
	for i, want := range []error{faults.ErrInjected, faults.ErrInjected, nil, nil, collect.ErrPermanent, collect.ErrPermanent} {
		_, err := s.Write(payload)
		if want == nil {
			if err != nil {
				t.Fatalf("write %d: %v", i+1, err)
			}
			continue
		}
		if !errors.Is(err, want) {
			t.Fatalf("write %d: got %v, want %v", i+1, err, want)
		}
	}
	if dst.Len() != 2*len(payload) {
		t.Fatalf("sink bytes: %d", dst.Len())
	}
	writes, failures := s.Stats()
	if writes != 6 || failures != 4 {
		t.Fatalf("stats: writes=%d failures=%d", writes, failures)
	}
}

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
