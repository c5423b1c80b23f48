package store

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btrace/internal/btql"
	"btrace/internal/tracer"
	"btrace/internal/tracer/tracertest"
)

// drainParallel fully drains a parallel cursor: a Next returning 0 means
// a whole round over every segment yielded nothing new.
func drainParallel(t *testing.T, c *PCursor, batch int) ([]tracer.Entry, uint64) {
	t.Helper()
	var out []tracer.Entry
	var missed uint64
	buf := make([]tracer.Entry, batch)
	for {
		n, m, err := c.Next(buf)
		missed += m
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if n == 0 {
			return out, missed
		}
		for i := 0; i < n; i++ {
			e := buf[i]
			e.Payload = append([]byte(nil), e.Payload...)
			out = append(out, e)
		}
	}
}

// TestParallelMatchesSequential is the equivalence table of the three
// scan surfaces. Over a store holding every tier at once — a frozen v2
// run, a compacted run, sealed hot segments and an unsealed tail — the
// parallel cursor must deliver exactly the sequential cursor's result
// set, and Aggregate must equal a brute-force fold of that drain, for a
// spread of queries: field filters, the segment-pruning ones, BTQL
// header and payload predicates, limits.
func TestParallelMatchesSequential(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 800, 100)
	if _, err := st.CompactCold(); err != nil { // all but the newest run freeze
		t.Fatalf("CompactCold: %v", err)
	}
	sealEvery(t, st, 801, 1400, 100)
	if _, err := st.Compact(); err != nil { // the small sealed runs merge
		t.Fatalf("Compact: %v", err)
	}
	appendRange(t, st, 1401, 2400) // rotates once by size, tail unsealed
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts := st.TierStats()
	if ts[TierCold].Segments == 0 || ts[TierCompacted].Segments == 0 || ts[TierHot].Segments < 2 {
		t.Fatalf("fixture does not span the tiers: %+v", ts)
	}
	for _, b := range st.ColdBlocks() {
		if b.Version != 2 {
			t.Fatalf("fixture froze a v%d block", b.Version)
		}
	}

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
	}
	// keep is the brute-force reading of each query, so the sequential
	// cursor — the reference the other two surfaces are compared against,
	// which runs the same scan they do — is itself checked against
	// something that shares no code with it.
	queries := []struct {
		q    Query
		keep func(e *tracer.Entry) bool
	}{
		{Query{}, func(e *tracer.Entry) bool { return true }},
		{Query{MinStamp: 500, MaxStamp: 1500}, func(e *tracer.Entry) bool { return e.Stamp >= 500 && e.Stamp <= 1500 }},
		{Query{Categories: []uint8{2}}, func(e *tracer.Entry) bool { return e.Category == 2 }},
		{Query{Cores: []uint8{0, 3}, MinStamp: 100}, func(e *tracer.Entry) bool { return (e.Core == 0 || e.Core == 3) && e.Stamp >= 100 }},
		{Query{MinTS: 700_000, MaxTS: 900_000}, func(e *tracer.Entry) bool { return e.TS >= 700_000 && e.TS <= 900_000 }},
		{Query{Limit: 37}, func(e *tracer.Entry) bool { return true }},
		{Query{MinStamp: 1900, Limit: 250}, func(e *tracer.Entry) bool { return e.Stamp >= 1900 }},
		{Query{Pred: predOf(t, `tid == 3`)}, func(e *tracer.Entry) bool { return e.TID == 3 }},
		{Query{Pred: predOf(t, `category == 2 && core != 1`)}, func(e *tracer.Entry) bool { return e.Category == 2 && e.Core != 1 }},
		{Query{Pred: predOf(t, `payload contains "payload-77"`), MinStamp: 300}, func(e *tracer.Entry) bool {
			return e.Stamp >= 300 && bytes.Contains(e.Payload, []byte("payload-77"))
		}},
	}
	for qi, tc := range queries {
		q := tc.q
		want := drainStore(t, st, q)
		var oracle []uint64
		for s := uint64(1); s <= 2400 && (q.Limit == 0 || len(oracle) < q.Limit); s++ {
			if e := mkEntry(s); tc.keep(&e) {
				oracle = append(oracle, s)
			}
		}
		if len(oracle) == 0 || len(want) != len(oracle) {
			t.Fatalf("query %d: sequential cursor returned %d entries, brute force %d", qi, len(want), len(oracle))
		}
		for i := range want {
			if want[i].Stamp != oracle[i] {
				t.Fatalf("query %d: sequential entry %d stamp %d, brute force %d", qi, i, want[i].Stamp, oracle[i])
			}
			checkEntry(t, want[i])
		}
		for _, workers := range []int{1, 4} {
			pc := st.QueryParallel(q, workers)
			got, missed := drainParallel(t, pc, 113)
			pc.Close()
			if missed != 0 {
				t.Fatalf("query %d workers %d: missed=%d on a quiescent store", qi, workers, missed)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d workers %d: got %d entries, want %d", qi, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Stamp != want[i].Stamp {
					t.Fatalf("query %d workers %d: entry %d stamp %d, want %d", qi, workers, i, got[i].Stamp, want[i].Stamp)
				}
				checkEntry(t, got[i])
			}
		}
		if q.Limit > 0 {
			continue // an aggregate is defined over every match
		}
		ref := make([]btql.Result, len(specs))
		for i := range specs {
			a := specs[i].New()
			for j := range want {
				a.ObserveEntry(&want[j])
			}
			ref[i] = a.Result()
		}
		agg, missed, err := st.Aggregate(q, specs)
		if err != nil || missed != 0 {
			t.Fatalf("query %d: Aggregate: missed=%d err=%v", qi, missed, err)
		}
		if !reflect.DeepEqual(agg, ref) {
			t.Fatalf("query %d: aggregate mismatch:\n got %+v\nwant %+v", qi, agg, ref)
		}
	}
}

// TestParallelIncremental checks the round contract: appends landing
// after a full drain are delivered by the next Next, exactly once.
func TestParallelIncremental(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	appendRange(t, st, 1, 100)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	pc := st.QueryParallel(Query{}, 2)
	defer pc.Close()
	got, _ := drainParallel(t, pc, 64)
	if len(got) != 100 {
		t.Fatalf("first drain delivered %d entries, want 100", len(got))
	}
	appendRange(t, st, 101, 105)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	buf := make([]tracer.Entry, 64)
	n, missed, err := pc.Next(buf)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if n != 5 || missed != 0 {
		t.Fatalf("incremental Next: n=%d missed=%d, want n=5 missed=0", n, missed)
	}
	for i := 0; i < n; i++ {
		if buf[i].Stamp != uint64(101+i) {
			t.Fatalf("incremental entry %d stamp %d, want %d", i, buf[i].Stamp, 101+i)
		}
	}
}

// TestParallelCursorMissedOnRetention mirrors the sequential cursor's
// retention test: retention lapping an open parallel cursor must surface
// through missed, never silently.
func TestParallelCursorMissedOnRetention(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 4 << 10, MaxBytes: 64 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	appendRange(t, st, 1, 100)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	pc := st.QueryParallel(Query{}, 2)
	defer pc.Close()
	first, _ := drainParallel(t, pc, 64)
	if len(first) == 0 {
		t.Fatal("first drain empty")
	}
	// Blow well past the byte budget so retention retires segments the
	// cursor has not seen yet.
	appendRange(t, st, 101, 4000)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	rest, missed := drainParallel(t, pc, 64)
	total := uint64(len(first)+len(rest)) + missed
	if total < 4000 {
		t.Fatalf("delivered %d + missed %d under-reports 4000 appended", len(first)+len(rest), missed)
	}
	seen := make(map[uint64]bool, len(first)+len(rest))
	for _, e := range append(first, rest...) {
		if seen[e.Stamp] {
			t.Fatalf("stamp %d delivered twice", e.Stamp)
		}
		seen[e.Stamp] = true
	}
}

// TestStoreParallelTracerConformance runs the repository-wide tracer
// conformance suite with parallel cursors switched on: the cursor/batch
// contract must hold regardless of which read path answers it.
func TestStoreParallelTracerConformance(t *testing.T) {
	tracertest.Run(t, tracertest.Config{
		New: func(totalBytes, cores, threads int) (tracer.Tracer, error) {
			tr, err := NewTracer(t.TempDir(), totalBytes)
			if err != nil {
				return nil, err
			}
			tr.UseParallelQueries(4)
			return tr, nil
		},
	})
}

// TestStoreParallelStress races appenders, short-lived and long-lived
// parallel cursors, and retention against each other. Meant to run under
// -race. Invariants checked:
//
//   - within one Next batch, stamps are non-decreasing (each batch comes
//     from a single stamp-merged round);
//   - no stamp is ever delivered twice to the same cursor;
//   - delivered + missed never under-reports the total appended: every
//     event a cursor did not see must be covered by its missed tally.
func TestStoreParallelStress(t *testing.T) {
	const (
		writers   = 4
		batchSize = 16
	)
	batches := 400
	if testing.Short() {
		batches = 120
	}
	st, err := Open(t.TempDir(), Config{
		SegmentBytes: 16 << 10,
		MaxBytes:     192 << 10, // retention active mid-scan
		CommitEvery:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	// The long-lived cursor exists before any write and incrementally
	// drains while writers and retention churn underneath it.
	main := st.QueryParallel(Query{}, 3)
	defer main.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var appendErr atomic.Value
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			es := make([]tracer.Entry, batchSize)
			for b := 0; b < batches; b++ {
				for i := range es {
					stamp := uint64(id)<<40 | uint64(b*batchSize+i+1)
					es[i] = mkEntry(stamp)
					es[i].Stamp = stamp
				}
				if err := st.AppendEntries(es); err != nil {
					appendErr.Store(err)
					return
				}
			}
		}(w)
	}

	// Short-lived cursors: partial drains ending in Close exercise the
	// round-abort path while scans are in flight.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]tracer.Entry, 256)
		for !stop.Load() {
			pc := st.QueryParallel(Query{Limit: 700}, 2)
			for rounds := 0; rounds < 3; rounds++ {
				n, _, err := pc.Next(buf)
				if err != nil || n == 0 {
					break
				}
				for i := 1; i < n; i++ {
					if buf[i].Stamp < buf[i-1].Stamp {
						t.Errorf("short cursor: stamps regress within a batch: %d after %d", buf[i].Stamp, buf[i-1].Stamp)
						pc.Close()
						return
					}
				}
			}
			pc.Close()
		}
	}()

	seen := make(map[uint64]bool)
	var delivered, missed uint64
	buf := make([]tracer.Entry, 512)
	drainOnce := func() bool {
		n, m, err := main.Next(buf)
		missed += m
		if err != nil {
			t.Fatalf("main cursor Next: %v", err)
		}
		for i := 0; i < n; i++ {
			if i > 0 && buf[i].Stamp < buf[i-1].Stamp {
				t.Fatalf("main cursor: stamps regress within a batch: %d after %d", buf[i].Stamp, buf[i-1].Stamp)
			}
			if seen[buf[i].Stamp] {
				t.Fatalf("stamp %#x delivered twice", buf[i].Stamp)
			}
			seen[buf[i].Stamp] = true
		}
		delivered += uint64(n)
		return n > 0
	}

	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for draining := true; draining; {
		select {
		case <-writersDone:
			draining = false
		default:
			drainOnce()
		}
	}
	stop.Store(true)
	readerWG.Wait()
	if err, _ := appendErr.Load().(error); err != nil {
		t.Fatalf("AppendEntries: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// One full quiet round picks up everything still on disk.
	for drainOnce() {
	}
	total := uint64(writers * batches * batchSize)
	if delivered+missed < total {
		t.Fatalf("delivered %d + missed %d under-reports %d appended", delivered, missed, total)
	}
	t.Logf("delivered=%d missed=%d total=%d", delivered, missed, total)
}
