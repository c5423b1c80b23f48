// Package tracertest provides a conformance suite that every tracer in
// this repository (BTrace and the four baselines) must pass. Baselines
// declare their documented policy deviations (e.g. drop-newest) through
// Config flags.
package tracertest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/tracer"
)

// Config describes the tracer under test.
type Config struct {
	// New constructs the tracer for the given budget/cores/threads.
	New func(totalBytes, cores, threads int) (tracer.Tracer, error)
	// Cores and Threads configure the conformance workload.
	Cores, Threads int
	// TotalBytes is the buffer budget.
	TotalBytes int
	// DropsNewest is true for tracers whose documented policy discards
	// the newest entries (the LTTng baseline); the newest-retained check
	// is relaxed for them.
	DropsNewest bool
	// PayloadBytes is the event payload size used by the suite.
	PayloadBytes int
}

func (c Config) defaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.TotalBytes == 0 {
		c.TotalBytes = 256 << 10
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 16
	}
	return c
}

// Run executes the conformance suite as subtests.
func Run(t *testing.T, cfg Config) {
	cfg = cfg.defaults()
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, cfg) })
	t.Run("NameAndBudget", func(t *testing.T) { testNameAndBudget(t, cfg) })
	t.Run("TooLarge", func(t *testing.T) { testTooLarge(t, cfg) })
	t.Run("Reset", func(t *testing.T) { testReset(t, cfg) })
	t.Run("OverwriteOldest", func(t *testing.T) { testOverwriteOldest(t, cfg) })
	t.Run("ConcurrentNoDuplicates", func(t *testing.T) { testConcurrent(t, cfg) })
	t.Run("StatsAccounting", func(t *testing.T) { testStats(t, cfg) })
	t.Run("CursorMatchesReadAll", func(t *testing.T) { testCursorMatchesReadAll(t, cfg) })
	t.Run("CursorIncremental", func(t *testing.T) { testCursorIncremental(t, cfg) })
}

func newTracer(t *testing.T, cfg Config) tracer.Tracer {
	t.Helper()
	tr, err := cfg.New(cfg.TotalBytes, cfg.Cores, cfg.Threads)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func testRoundTrip(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: cfg.Cores - 1, TID: 3}
	want := &tracer.Entry{
		Stamp: 7, TS: 1234, Core: uint8(cfg.Cores - 1), TID: 3,
		Category: 5, Level: 2, Payload: []byte("conformance"),
	}
	if err := tr.Write(p, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	es, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(es) != 1 {
		t.Fatalf("ReadAll: %d entries, want 1", len(es))
	}
	got := es[0]
	if got.Stamp != want.Stamp || got.TS != want.TS || got.Core != want.Core ||
		got.TID != want.TID || got.Category != want.Category || got.Level != want.Level ||
		string(got.Payload) != string(want.Payload) {
		t.Fatalf("entry mismatch: got %+v want %+v", got, *want)
	}
}

func testNameAndBudget(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	if tr.Name() == "" {
		t.Error("empty Name")
	}
	tb := tr.TotalBytes()
	if tb <= 0 || tb > 2*cfg.TotalBytes {
		t.Errorf("TotalBytes = %d for budget %d", tb, cfg.TotalBytes)
	}
}

func testTooLarge(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{}
	e := &tracer.Entry{Stamp: 1, Payload: make([]byte, tracer.MaxPayload)}
	if err := tr.Write(p, e); err == nil {
		// Some tracers may legitimately accommodate 64 KiB payloads if
		// their page size allows it; only fail if the tracer also cannot
		// read it back.
		es, _ := tr.ReadAll()
		if len(es) != 1 {
			t.Error("oversized write succeeded but entry unreadable")
		}
	} else if !errors.Is(err, tracer.ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func testReset(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	for i := 0; i < 50; i++ {
		if err := tr.Write(p, &tracer.Entry{Stamp: uint64(i + 1), Payload: make([]byte, cfg.PayloadBytes)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	tr.Reset()
	es, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll after Reset: %v", err)
	}
	if len(es) != 0 {
		t.Fatalf("%d entries survived Reset", len(es))
	}
	if st := tr.Stats(); st.Writes != 0 {
		t.Errorf("stats survived Reset: %+v", st)
	}
	// Reusable after Reset.
	if err := tr.Write(p, &tracer.Entry{Stamp: 99}); err != nil {
		t.Fatalf("Write after Reset: %v", err)
	}
	es, _ = tr.ReadAll()
	if len(es) != 1 || es[0].Stamp != 99 {
		t.Fatalf("after Reset: %v", es)
	}
}

func testOverwriteOldest(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	// Write far more than the budget: the newest entries must survive; a
	// single producer must never have interior gaps.
	wire := tracer.EventWireSize(cfg.PayloadBytes)
	n := cfg.TotalBytes / wire * 4
	for i := 1; i <= n; i++ {
		if err := tr.Write(p, &tracer.Entry{Stamp: uint64(i), TS: uint64(i), Payload: make([]byte, cfg.PayloadBytes)}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	es, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(es) == 0 {
		t.Fatal("nothing retained")
	}
	for i := 1; i < len(es); i++ {
		if es[i].Stamp != es[i-1].Stamp+1 {
			t.Fatalf("interior gap: %d -> %d", es[i-1].Stamp, es[i].Stamp)
		}
	}
	if es[len(es)-1].Stamp != uint64(n) {
		t.Fatalf("newest stamp %d, want %d", es[len(es)-1].Stamp, n)
	}
}

func testConcurrent(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	var stamp atomic.Uint64
	var wg sync.WaitGroup
	var dropped atomic.Uint64
	for g := 0; g < cfg.Threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &tracer.FixedProc{CoreID: g % cfg.Cores, TID: g}
			for i := 0; i < 500; i++ {
				e := &tracer.Entry{Stamp: stamp.Add(1), TS: uint64(i), Payload: make([]byte, cfg.PayloadBytes)}
				err := tr.Write(p, e)
				switch {
				case err == nil:
				case errors.Is(err, tracer.ErrDropped) && cfg.DropsNewest:
					dropped.Add(1)
				default:
					t.Errorf("thread %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	es, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	seen := map[uint64]bool{}
	for _, e := range es {
		if e.Stamp == 0 || e.Stamp > stamp.Load() {
			t.Fatalf("stamp %d out of range", e.Stamp)
		}
		if seen[e.Stamp] {
			t.Fatalf("duplicate stamp %d", e.Stamp)
		}
		seen[e.Stamp] = true
	}
	if len(es) == 0 {
		t.Fatal("nothing retained")
	}
}

func testCursorMatchesReadAll(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	const n = 40
	for i := 1; i <= n; i++ {
		payload := []byte{byte(i), byte(i >> 8), byte(i + 1)}
		if err := tr.Write(p, &tracer.Entry{Stamp: uint64(i), TS: uint64(i), Payload: payload}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	want, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	cur := tr.NewCursor()
	defer cur.Close()
	// A batch smaller than the readout forces delivery across Next calls.
	got, err := tracer.Drain(cur, 7)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor delivered %d events, ReadAll %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Stamp != want[i].Stamp || got[i].TS != want[i].TS ||
			string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("event %d: cursor %+v != ReadAll %+v", i, got[i], want[i])
		}
	}
	// Exhausted cursor keeps returning 0 without error.
	batch := make([]tracer.Entry, 4)
	if n, missed, err := cur.Next(batch); n != 0 || missed != 0 || err != nil {
		t.Fatalf("Next after drain = (%d, %d, %v), want (0, 0, nil)", n, missed, err)
	}
}

func testCursorIncremental(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	write := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := tr.Write(p, &tracer.Entry{Stamp: uint64(i), TS: uint64(i), Payload: []byte{byte(i)}}); err != nil {
				t.Fatalf("Write %d: %v", i, err)
			}
		}
	}
	write(1, 10)
	cur := tr.NewCursor()
	defer cur.Close()
	got, err := tracer.Drain(cur, 64)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("first drain delivered %d events, want 10", len(got))
	}
	// New writes after the drain must be delivered exactly once, without
	// re-delivering the first ten.
	write(11, 15)
	batch := make([]tracer.Entry, 64)
	n, missed, err := cur.Next(batch)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if missed != 0 {
		t.Fatalf("missed = %d, want 0", missed)
	}
	if n != 5 {
		t.Fatalf("incremental Next delivered %d events, want 5", n)
	}
	for i := 0; i < n; i++ {
		if want := uint64(11 + i); batch[i].Stamp != want {
			t.Fatalf("incremental event %d: stamp %d, want %d", i, batch[i].Stamp, want)
		}
	}
}

func testStats(t *testing.T, cfg Config) {
	tr := newTracer(t, cfg)
	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	const n = 20
	for i := 1; i <= n; i++ {
		if err := tr.Write(p, &tracer.Entry{Stamp: uint64(i), Payload: make([]byte, cfg.PayloadBytes)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	st := tr.Stats()
	if st.Writes != n {
		t.Errorf("Writes = %d, want %d", st.Writes, n)
	}
	if st.BytesWritten < uint64(n*tracer.EventWireSize(cfg.PayloadBytes)) {
		t.Errorf("BytesWritten = %d too small", st.BytesWritten)
	}
}
