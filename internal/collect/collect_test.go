package collect

import (
	"bytes"
	"strings"
	"testing"

	"btrace/internal/core"
	"btrace/internal/tracer"
)

// fakeCursor replays scripted reads, one per Next (each must fit the
// batch it is handed), giving every entry a one-byte payload (its stamp)
// out of an arena it scribbles over on the following call — the cursor
// ownership contract at its most hostile: whoever kept a borrowed
// payload reads 0xEE.
type fakeCursor struct {
	polls  [][]tracer.Entry
	missed []uint64
	i      int
	arena  []byte
}

func (f *fakeCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	for i := range f.arena {
		f.arena[i] = 0xEE
	}
	if f.i >= len(f.polls) {
		return 0, 0, nil
	}
	n, m := copy(batch, f.polls[f.i]), uint64(0)
	f.arena = make([]byte, n)
	for i := range batch[:n] {
		f.arena[i] = byte(batch[i].Stamp)
		batch[i].Payload = f.arena[i : i+1 : i+1]
	}
	if f.i < len(f.missed) {
		m = f.missed[f.i]
	}
	f.i++
	return n, m, nil
}

func (f *fakeCursor) Close() error { return nil }

func ev(stamp, ts uint64, cat uint8) tracer.Entry {
	return tracer.Entry{Stamp: stamp, TS: ts, Category: cat}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil source: expected error")
	}
	c, err := New(Config{Source: &fakeCursor{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.maxWindow != 1<<16 {
		t.Fatalf("default window = %d", c.maxWindow)
	}
}

func TestWatchdogFiresOnSilence(t *testing.T) {
	w := &Watchdog{Category: 7, TimeoutNs: 10e9} // 10 s, the §6 driver daemon
	// Heartbeats every 5 s: no fire.
	if r := w.Observe([]tracer.Entry{ev(1, 0, 7), ev(2, 5e9, 7), ev(3, 9e9, 1)}); r != "" {
		t.Fatalf("fired early: %s", r)
	}
	// Other traffic continues, category 7 silent for 12 s: fire once.
	if r := w.Observe([]tracer.Entry{ev(4, 17.5e9, 1)}); r == "" {
		t.Fatal("did not fire after timeout")
	}
	if r := w.Observe([]tracer.Entry{ev(5, 18e9, 1)}); r != "" {
		t.Fatalf("re-fired in same silence episode: %s", r)
	}
	// The category resumes, then goes silent again: fires again.
	if r := w.Observe([]tracer.Entry{ev(6, 19e9, 7)}); r != "" {
		t.Fatalf("fired on resume: %s", r)
	}
	if r := w.Observe([]tracer.Entry{ev(7, 40e9, 1)}); r == "" {
		t.Fatal("did not fire on second silence")
	}
}

func TestWatchdogNeverFiresWithoutBaseline(t *testing.T) {
	w := &Watchdog{Category: 7, TimeoutNs: 1}
	if r := w.Observe([]tracer.Entry{ev(1, 100e9, 1)}); r != "" {
		t.Fatalf("fired with no baseline: %s", r)
	}
}

func TestRateSpike(t *testing.T) {
	r := &RateSpike{Category: 2, WindowNs: 1e9, MaxEvents: 3}
	// 3 events in a second: at the limit, no fire.
	if s := r.Observe([]tracer.Entry{ev(1, 0, 2), ev(2, 0.3e9, 2), ev(3, 0.6e9, 2)}); s != "" {
		t.Fatalf("fired at limit: %s", s)
	}
	// A 4th within the window: fire.
	if s := r.Observe([]tracer.Entry{ev(4, 0.9e9, 2)}); s == "" {
		t.Fatal("did not fire over limit")
	}
	// Quiet period drains the window; normal rate does not re-fire.
	if s := r.Observe([]tracer.Entry{ev(5, 10e9, 2), ev(6, 11.5e9, 2)}); s != "" {
		t.Fatalf("re-fired after drain: %s", s)
	}
	// Other categories never count.
	rs := &RateSpike{Category: 2, WindowNs: 1e9, MaxEvents: 0}
	if s := rs.Observe([]tracer.Entry{ev(1, 0, 3), ev(2, 0, 3)}); s != "" {
		t.Fatalf("counted foreign category: %s", s)
	}
}

func TestLossDetector(t *testing.T) {
	l := &LossDetector{Tolerance: 5}
	if l.Observe(nil) != "" {
		t.Fatal("Observe must not fire")
	}
	if l.ObserveMissed(5) != "" {
		t.Fatal("within tolerance")
	}
	if l.ObserveMissed(6) == "" {
		t.Fatal("over tolerance")
	}
}

func TestCollectorStepAndDump(t *testing.T) {
	src := &fakeCursor{
		polls: [][]tracer.Entry{
			{ev(1, 0, 7), ev(2, 1e9, 1)},
			{ev(3, 2e9, 1)},
			{ev(4, 30e9, 1)}, // category 7 now silent for 30 s
		},
	}
	c, err := New(Config{
		Source:   src,
		Triggers: []Trigger{&Watchdog{Category: 7, TimeoutNs: 20e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Step(); d != nil {
		t.Fatalf("early dump: %+v", d)
	}
	if d := c.Step(); d != nil {
		t.Fatalf("early dump: %+v", d)
	}
	d := c.Step()
	if d == nil {
		t.Fatal("no dump on watchdog fire")
	}
	if !strings.Contains(d.Reason, "watchdog(cat=7)") {
		t.Fatalf("reason: %s", d.Reason)
	}
	// The dump contains the full rolling context (all 4 events), deep
	// copies that outlive the reads they arrived in.
	if len(d.Events) != 4 {
		t.Fatalf("dump has %d events, want 4", len(d.Events))
	}
	for _, e := range d.Events {
		if len(e.Payload) != 1 || e.Payload[0] != byte(e.Stamp) {
			t.Fatalf("stamp %d: payload %x (the window kept a borrowed slice)", e.Stamp, e.Payload)
		}
	}
	// The window resets after a dump.
	if d2 := c.Step(); d2 != nil {
		t.Fatalf("dump after exhaustion: %+v", d2)
	}
	polls, missed := c.Stats()
	if polls != 4 || missed != 0 {
		t.Fatalf("stats: %d/%d", polls, missed)
	}
}

func TestCollectorLossDump(t *testing.T) {
	src := &fakeCursor{
		polls:  [][]tracer.Entry{{ev(10, 0, 1)}},
		missed: []uint64{100},
	}
	loss := &LossDetector{Tolerance: 10}
	c, err := New(Config{Source: src, Triggers: []Trigger{loss}})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Step()
	if d == nil || !strings.Contains(d.Reason, "missed 100") {
		t.Fatalf("dump: %+v", d)
	}
}

// TestCollectorAllReasonsReported: a watchdog and a rate spike firing on
// the same poll both appear in the dump reason (the first-trigger-wins
// bug lost one of the signals).
func TestCollectorAllReasonsReported(t *testing.T) {
	src := &fakeCursor{
		polls: [][]tracer.Entry{
			{ev(1, 0, 7)},
			// Category 7 silent for 30 s AND category 2 bursting.
			{ev(2, 30e9, 2), ev(3, 30.1e9, 2), ev(4, 30.2e9, 2)},
		},
		missed: []uint64{0, 50},
	}
	c, err := New(Config{
		Source: src,
		Triggers: []Trigger{
			&Watchdog{Category: 7, TimeoutNs: 20e9},
			&RateSpike{Category: 2, WindowNs: 1e9, MaxEvents: 2},
			&LossDetector{Tolerance: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Step(); d != nil {
		t.Fatalf("early dump: %+v", d)
	}
	d := c.Step()
	if d == nil {
		t.Fatal("no dump")
	}
	for _, frag := range []string{"watchdog(cat=7)", "ratespike(cat=2)", "lossdetector", "; "} {
		if !strings.Contains(d.Reason, frag) {
			t.Errorf("reason %q missing %q", d.Reason, frag)
		}
	}
}

// TestWatchdogOutOfOrderTimestamps: a late heartbeat with an old TS must
// not rewind lastSeen and fabricate a silence episode.
func TestWatchdogOutOfOrderTimestamps(t *testing.T) {
	w := &Watchdog{Category: 7, TimeoutNs: 10e9}
	if r := w.Observe([]tracer.Entry{ev(1, 20e9, 7), ev(2, 21e9, 1)}); r != "" {
		t.Fatalf("fired early: %s", r)
	}
	// A delayed heartbeat from TS 1 s arrives: lastSeen must stay at 20 s.
	if r := w.Observe([]tracer.Entry{ev(3, 1e9, 7)}); r != "" {
		t.Fatalf("fired on late heartbeat: %s", r)
	}
	if r := w.Observe([]tracer.Entry{ev(4, 25e9, 1)}); r != "" {
		t.Fatalf("silence fabricated by rewound lastSeen: %s", r)
	}
	if r := w.Observe([]tracer.Entry{ev(5, 35e9, 1)}); r == "" {
		t.Fatal("real silence after 20s not detected")
	}
}

// TestRateSpikeOutOfOrderTimestamps: a late event must not underflow the
// window arithmetic and wrongly empty the window.
func TestRateSpikeOutOfOrderTimestamps(t *testing.T) {
	r := &RateSpike{Category: 2, WindowNs: 1e9, MaxEvents: 3}
	if s := r.Observe([]tracer.Entry{ev(1, 10e9, 2), ev(2, 10.2e9, 2), ev(3, 10.4e9, 2)}); s != "" {
		t.Fatalf("fired at limit: %s", s)
	}
	// A late event (TS 9.8 s < the recorded 10 s) arrives: without the
	// guard, 9.8e9 - 10e9 underflows and empties the window; the burst
	// below then goes undetected.
	if s := r.Observe([]tracer.Entry{ev(4, 9.8e9, 2)}); s == "" {
		t.Fatal("4 events within the window must fire despite the late arrival")
	}
}

func TestCollectorWindowBound(t *testing.T) {
	var es []tracer.Entry
	for i := 1; i <= 100; i++ {
		es = append(es, ev(uint64(i), uint64(i), 1))
	}
	src := &fakeCursor{polls: [][]tracer.Entry{es, {ev(101, 200e9, 1), ev(102, 201e9, 7)}, {ev(103, 230e9, 1)}}}
	c, err := New(Config{
		Source:          src,
		Triggers:        []Trigger{&Watchdog{Category: 7, TimeoutNs: 20e9}},
		MaxWindowEvents: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	c.Step()
	d := c.Step()
	if d == nil {
		t.Fatal("no dump")
	}
	if len(d.Events) > 50 {
		t.Fatalf("window exceeded bound: %d", len(d.Events))
	}
	// The newest events are the ones kept.
	if d.Events[len(d.Events)-1].Stamp != 103 {
		t.Fatalf("newest in window: %d", d.Events[len(d.Events)-1].Stamp)
	}
}

func TestDumpWriteTo(t *testing.T) {
	d := &Dump{Events: []tracer.Entry{
		{Stamp: 1, Payload: []byte("x")},
		{Stamp: 2, Payload: []byte("y")},
	}}
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("n=%d len=%d", n, buf.Len())
	}
	recs, truncated := tracer.DecodeAll(buf.Bytes())
	if truncated || len(recs) != 2 {
		t.Fatalf("decode: %d records truncated=%v", len(recs), truncated)
	}
}

// TestCollectorAgainstLiveBuffer wires the collector to a real BTrace
// cursor: end-to-end silent-defect detection over a live buffer.
func TestCollectorAgainstLiveBuffer(t *testing.T) {
	b, err := core.New(core.Options{Cores: 2, BlockSize: 256, ActiveBlocks: 4, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	cur := b.NewCursor()
	defer cur.Close()
	c, err := New(Config{
		Source:   cur,
		Triggers: []Trigger{&Watchdog{Category: 9, TimeoutNs: 10e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &tracer.FixedProc{CoreID: 0}
	// Heartbeat plus noise, then the heartbeat stops.
	stamp := uint64(0)
	write := func(ts uint64, cat uint8) {
		stamp++
		if err := b.Write(p, &tracer.Entry{Stamp: stamp, TS: ts, Category: cat, Payload: make([]byte, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 9)
	for ts := uint64(1e9); ts < 8e9; ts += 1e9 {
		write(ts, 1)
	}
	if d := c.Step(); d != nil {
		t.Fatalf("early dump: %s", d.Reason)
	}
	for ts := uint64(8e9); ts < 25e9; ts += 1e9 {
		write(ts, 1)
	}
	d := c.Step()
	if d == nil {
		t.Fatal("watchdog did not fire over live buffer")
	}
	if len(d.Events) == 0 {
		t.Fatal("empty dump")
	}
}
