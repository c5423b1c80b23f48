package collect

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"btrace/internal/obs"
	"btrace/internal/tracer"
)

// scriptedSource replays a script of fallible reads, one per Next, then
// returns empty successful reads forever.
type scriptedSource struct {
	steps []scriptedPoll
	i     int
}

type scriptedPoll struct {
	es     []tracer.Entry
	missed uint64
	err    error
}

func (s *scriptedSource) Next(batch []tracer.Entry) (int, uint64, error) {
	if s.i >= len(s.steps) {
		return 0, 0, nil
	}
	st := s.steps[s.i]
	s.i++
	return copy(batch, st.es), st.missed, st.err
}

func (s *scriptedSource) Close() error { return nil }

// flakySink fails its first failFirst writes; a negative failFirst means
// every write fails. permanent makes failures wrap ErrPermanent.
type flakySink struct {
	buf       bytes.Buffer
	failFirst int
	permanent bool
	writes    int
}

func (f *flakySink) Write(p []byte) (int, error) {
	f.writes++
	if f.failFirst < 0 || f.writes <= f.failFirst {
		if f.permanent {
			return 0, fmt.Errorf("sink died: %w", ErrPermanent)
		}
		return 0, errors.New("transient sink failure")
	}
	return f.buf.Write(p)
}

func TestNewSupervisorValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{}); err == nil {
		t.Fatal("nil source: expected error")
	}
	s, err := NewSupervisor(SupervisorConfig{Cursor: &scriptedSource{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.PollRetryBudget != 8 || s.cfg.SinkRetryBudget != 8 ||
		s.cfg.BackoffBase != 1 || s.cfg.BackoffMax != 64 || s.cfg.SpillCapacity != 16 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

// TestSupervisorMetrics: a supervisor republishes its stats and health
// as the btrace_collect_* series of the process-wide registry on every
// step.
func TestSupervisorMetrics(t *testing.T) {
	before := obs.Default().Snapshot()
	src := &scriptedSource{steps: []scriptedPoll{{es: []tracer.Entry{ev(1, 0, 1), ev(2, 1, 1)}}}}
	s, err := NewSupervisor(SupervisorConfig{Cursor: src})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Step()
	}
	after := obs.Default().Snapshot()
	// The mirror retires via finalizer; keep the supervisor reachable
	// past the snapshot or a GC in between folds its gauges away.
	runtime.KeepAlive(s)
	for _, name := range []string{"btrace_collect_polls_total", "btrace_collect_pending_dumps", "btrace_collect_supervisors"} {
		if _, ok := after.Get(name); !ok {
			t.Errorf("series %s missing", name)
		}
	}
	if got := after.Value("btrace_collect_polls_total") - before.Value("btrace_collect_polls_total"); got < 3 {
		t.Errorf("polls moved by %v over 3 steps, want >= 3", got)
	}
}

// TestSupervisorBackoffAndWedge: consecutive poll failures back off
// exponentially and exhaust the retry budget into a wedged-source
// verdict; a successful poll with traffic clears it.
func TestSupervisorBackoffAndWedge(t *testing.T) {
	src := &scriptedSource{}
	for i := 0; i < 6; i++ {
		src.steps = append(src.steps, scriptedPoll{err: errors.New("poll broke")})
	}
	src.steps = append(src.steps, scriptedPoll{es: []tracer.Entry{ev(1, 0, 1)}})

	s, err := NewSupervisor(SupervisorConfig{
		Cursor:          src,
		PollRetryBudget: 3,
		BackoffBase:     1,
		BackoffMax:      4,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && s.Stats().Polls == 0; i++ {
		s.Step()
		if st := s.Stats(); st.PollErrors >= 3 && st.Polls == 0 && !s.Health().SourceWedged {
			t.Fatalf("budget exhausted (%d errors) but not wedged", st.PollErrors)
		}
	}
	st := s.Stats()
	if st.Polls != 1 || st.PollErrors != 6 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PollBackoffSteps == 0 {
		t.Fatal("no backoff steps recorded")
	}
	if s.Health().SourceWedged {
		t.Fatal("wedge not cleared by successful poll")
	}
}

// TestSupervisorBackoffDeterminism: identical configs and seeds absorb an
// identical failure script in the identical number of steps.
func TestSupervisorBackoffDeterminism(t *testing.T) {
	run := func() (SupervisorStats, int) {
		src := &scriptedSource{}
		for i := 0; i < 5; i++ {
			src.steps = append(src.steps, scriptedPoll{err: errors.New("x")})
		}
		s, err := NewSupervisor(SupervisorConfig{Cursor: src, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for s.Stats().Polls < 3 {
			s.Step()
			steps++
		}
		return s.Stats(), steps
	}
	a, as := run()
	b, bs := run()
	if a != b || as != bs {
		t.Fatalf("nondeterministic: %+v in %d steps vs %+v in %d steps", a, as, b, bs)
	}
}

func TestSupervisorEmptyPollWedge(t *testing.T) {
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:          &scriptedSource{},
		WedgeEmptyPolls: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Step()
	if s.Health().SourceWedged {
		t.Fatal("wedged too early")
	}
	s.Step()
	if !s.Health().SourceWedged {
		t.Fatal("silent source not declared wedged")
	}
}

// TestSupervisorQuarantine: inconsistent entries are quarantined into the
// next dump instead of entering the window.
func TestSupervisorQuarantine(t *testing.T) {
	src := &scriptedSource{steps: []scriptedPoll{
		{es: []tracer.Entry{ev(10, 0, 1), ev(10, 1, 1), ev(5, 2, 1), ev(11, 3, 1)}},
		{es: []tracer.Entry{ev(12, 4, 1)}, missed: 100},
	}}
	loss := &LossDetector{Tolerance: 1}
	s, err := NewSupervisor(SupervisorConfig{Cursor: src, Triggers: []Trigger{loss}})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Step(); d != nil {
		t.Fatalf("early dump: %+v", d)
	}
	d := s.Step()
	if d == nil {
		t.Fatal("loss trigger did not fire")
	}
	if len(d.Quarantined) != 2 || len(d.Violations) != 2 {
		t.Fatalf("quarantine: %d entries, %d violations (%v)", len(d.Quarantined), len(d.Violations), d.Violations)
	}
	if d.Quarantined[0].Stamp != 10 || d.Quarantined[1].Stamp != 5 {
		t.Fatalf("quarantined stamps: %+v", d.Quarantined)
	}
	for _, e := range d.Events {
		if e.Stamp == 5 {
			t.Fatal("out-of-order entry entered the window")
		}
	}
	if got := s.Stats().Quarantined; got != 2 {
		t.Fatalf("stats.Quarantined = %d", got)
	}
}

// lossyScript builds a source whose polls each carry one event and the
// given missed counts.
func lossyScript(missed ...uint64) *scriptedSource {
	src := &scriptedSource{}
	for i, m := range missed {
		src.steps = append(src.steps, scriptedPoll{
			es:     []tracer.Entry{ev(uint64(i+1), uint64(i), 1)},
			missed: m,
		})
	}
	return src
}

func TestSupervisorSinkTransientRetry(t *testing.T) {
	sink := &flakySink{failFirst: 3}
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:   lossyScript(50),
		Triggers: []Trigger{&LossDetector{Tolerance: 1}},
		Sink:     sink,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dumps int
	for i := 0; i < 100 && s.Stats().DumpsWritten == 0; i++ {
		if d := s.Step(); d != nil {
			dumps++
		}
	}
	st := s.Stats()
	if dumps != 1 || st.Dumps != 1 || st.DumpsWritten != 1 {
		t.Fatalf("dump accounting: produced=%d stats=%+v", dumps, st)
	}
	if st.SinkErrors != 3 || st.Spilled != 0 {
		t.Fatalf("sink stats: %+v", st)
	}
	if sink.buf.Len() == 0 {
		t.Fatal("sink received no bytes")
	}
	recs, truncated := tracer.DecodeAll(sink.buf.Bytes())
	if truncated || len(recs) == 0 {
		t.Fatalf("sink content: %d records truncated=%v", len(recs), truncated)
	}
}

func TestSupervisorSinkBudgetSpill(t *testing.T) {
	sink := &flakySink{failFirst: -1} // never recovers, but only transiently
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:          lossyScript(50),
		Triggers:        []Trigger{&LossDetector{Tolerance: 1}},
		Sink:            sink,
		SinkRetryBudget: 2,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && s.Stats().Spilled == 0; i++ {
		s.Step()
	}
	st := s.Stats()
	if st.Spilled != 1 || st.SpillDropped != 0 || st.DumpsWritten != 0 {
		t.Fatalf("spill stats: %+v", st)
	}
	if got := len(s.Spill()); got != 1 {
		t.Fatalf("spill ring holds %d dumps", got)
	}
}

func TestSupervisorSinkPermanentSpillAndFlush(t *testing.T) {
	sink := &flakySink{failFirst: 1, permanent: true}
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:   lossyScript(50),
		Triggers: []Trigger{&LossDetector{Tolerance: 1}},
		Sink:     sink,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && s.Stats().Spilled == 0; i++ {
		s.Step()
	}
	if !s.Health().SinkFailed {
		t.Fatal("permanent sink failure not reported")
	}
	st := s.Stats()
	if st.Spilled != 1 || st.SinkErrors != 1 {
		t.Fatalf("permanent failure should spill on first error: %+v", st)
	}
	// The sink heals (failFirst exhausted): Flush drains the spill ring.
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if s.Health().SinkFailed || len(s.Spill()) != 0 {
		t.Fatalf("flush left state: %+v, %d spilled", s.Health(), len(s.Spill()))
	}
	if s.Stats().DumpsWritten != 1 || sink.buf.Len() == 0 {
		t.Fatalf("flush did not deliver: %+v", s.Stats())
	}
}

func TestSupervisorSpillRingBound(t *testing.T) {
	sink := &flakySink{failFirst: -1, permanent: true}
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:        lossyScript(50, 50, 50, 50),
		Triggers:      []Trigger{&LossDetector{Tolerance: 1}},
		Sink:          sink,
		SpillCapacity: 2,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && s.Stats().Spilled < 4; i++ {
		s.Step()
	}
	st := s.Stats()
	if st.Spilled != 4 || st.SpillDropped != 2 {
		t.Fatalf("ring accounting: %+v", st)
	}
	if got := len(s.Spill()); got != 2 {
		t.Fatalf("ring holds %d dumps, want 2", got)
	}
}

// fakeResizer records adaptive resize decisions.
type fakeResizer struct {
	ratio int
	calls []int
	fail  bool
}

func (r *fakeResizer) Ratio() int { return r.ratio }
func (r *fakeResizer) Resize(n int) error {
	if r.fail {
		return errors.New("resize refused")
	}
	r.ratio = n
	r.calls = append(r.calls, n)
	return nil
}

func TestSupervisorAdaptiveResize(t *testing.T) {
	rz := &fakeResizer{ratio: 2}
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:      lossyScript(9, 9, 9, 9, 0, 0, 0, 0, 0, 0),
		Triggers:    []Trigger{&LossDetector{Tolerance: 5}},
		Resizer:     rz,
		MaxRatio:    8,
		GrowAfter:   2,
		ShrinkAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	st := s.Stats()
	if st.Grows != 2 {
		t.Fatalf("grows = %d (calls %v)", st.Grows, rz.calls)
	}
	if st.Shrinks != 2 {
		t.Fatalf("shrinks = %d (calls %v)", st.Shrinks, rz.calls)
	}
	// 2 lossy polls grow 2->4, 2 more grow 4->8; each run of 3 clean polls
	// shrinks one halving step back toward the base ratio: 8->4, then 4->2.
	want := []int{4, 8, 4, 2}
	if len(rz.calls) != len(want) {
		t.Fatalf("resize calls %v, want %v", rz.calls, want)
	}
	for i := range want {
		if rz.calls[i] != want[i] {
			t.Fatalf("resize calls %v, want %v", rz.calls, want)
		}
	}
	if len(s.ResizeErrors()) != 0 {
		t.Fatalf("resize errors: %v", s.ResizeErrors())
	}
}

func TestSupervisorResizeErrorSurfaced(t *testing.T) {
	rz := &fakeResizer{ratio: 2, fail: true}
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:    lossyScript(9, 9),
		Triggers:  []Trigger{&LossDetector{Tolerance: 5}},
		Resizer:   rz,
		MaxRatio:  8,
		GrowAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Step()
	if errs := s.ResizeErrors(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "refused") {
		t.Fatalf("resize errors: %v", errs)
	}
}

// arenaCursor simulates the core cursor's ownership contract as hostilely
// as possible: every Next first scribbles over the payload arena handed
// out by the previous call, so any consumer that retained a borrowed
// payload reads garbage.
type arenaCursor struct {
	next    uint64
	total   uint64
	perCall int
	arena   []byte
}

func (c *arenaCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	for i := range c.arena {
		c.arena[i] = 0xEE // invalidate everything handed out previously
	}
	c.arena = c.arena[:0]
	n := 0
	for n < len(batch) && n < c.perCall && c.next <= c.total {
		start := len(c.arena)
		c.arena = append(c.arena, byte(c.next), byte(c.next>>8), byte(c.next^0x5A))
		batch[n] = tracer.Entry{
			Stamp:   c.next,
			TS:      c.next * 10,
			Payload: c.arena[start:len(c.arena):len(c.arena)],
		}
		c.next++
		n++
	}
	return n, 0, nil
}

func (c *arenaCursor) Close() error { return nil }

// TestSupervisorCursorBoundedBatches drives a Supervisor from a cursor
// source: per-step consumption stays bounded by BatchSize, every event is
// ingested exactly once, and dumped windows hold deep copies whose
// payloads survive the cursor reusing its arena.
func TestSupervisorCursorBoundedBatches(t *testing.T) {
	const total = 100
	cur := &arenaCursor{next: 1, total: total, perCall: 64}
	fire := &fireAt{at: total} // fires when the last stamp is observed
	s, err := NewSupervisor(SupervisorConfig{
		Cursor:    cur,
		BatchSize: 16, // tighter than the cursor's own perCall bound
		Triggers:  []Trigger{fire},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dump *Dump
	for i := 0; i < total; i++ {
		if d := s.Step(); d != nil {
			dump = d
			break
		}
	}
	if dump == nil {
		t.Fatal("trigger never fired")
	}
	if got := s.Stats().Polls; got < total/16 {
		t.Fatalf("only %d polls for %d events with batch 16: batches not bounded?", got, total)
	}
	if len(dump.Events) != total {
		t.Fatalf("dump window has %d events, want %d", len(dump.Events), total)
	}
	// Force one more arena invalidation, then verify the dumped payloads:
	// a shallow copy anywhere in the pipeline shows up as 0xEE garbage.
	var scratch [16]tracer.Entry
	cur.total = 0
	if _, _, err := cur.Next(scratch[:]); err != nil {
		t.Fatal(err)
	}
	for i, e := range dump.Events {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d, want %d", i, e.Stamp, i+1)
		}
		want := []byte{byte(e.Stamp), byte(e.Stamp >> 8), byte(e.Stamp ^ 0x5A)}
		if string(e.Payload) != string(want) {
			t.Fatalf("stamp %d: payload %x, want %x (window kept a borrowed slice)",
				e.Stamp, e.Payload, want)
		}
	}
}

// fireAt fires once a given stamp has been observed.
type fireAt struct {
	at    uint64
	fired bool
}

func (f *fireAt) Name() string { return "fireat" }

func (f *fireAt) Observe(es []tracer.Entry) string {
	for i := range es {
		if es[i].Stamp >= f.at && !f.fired {
			f.fired = true
			return fmt.Sprintf("stamp %d reached", f.at)
		}
	}
	return ""
}

// TestSupervisorConfigValidation: a cursor is the whole of what a
// supervisor needs; every mode beyond it is optional.
func TestSupervisorConfigValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{Sink: &flakySink{}, Resizer: &fakeResizer{ratio: 2}}); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := NewSupervisor(SupervisorConfig{Cursor: &arenaCursor{next: 1}}); err != nil {
		t.Fatalf("cursor-only config rejected: %v", err)
	}
}
