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
// the pass over its snapshot is over.
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

// TestParallelCursorIsSnapshot checks the snapshot contract: the first
// Next fixes what the cursor answers for. Events appended after it are
// not delivered by that cursor, however long it is kept, and are
// delivered by a new one.
func TestParallelCursorIsSnapshot(t *testing.T) {
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
	// Opened before the append below but first read after it: the
	// snapshot is the first Next's, not QueryParallel's.
	late := st.QueryParallel(Query{}, 2)
	defer late.Close()
	buf := make([]tracer.Entry, 16)
	n, missed, err := pc.Next(buf)
	if n != 16 || missed != 0 || err != nil {
		t.Fatalf("first Next = (%d, %d, %v), want (16, 0, nil)", n, missed, err)
	}
	appendRange(t, st, 101, 105)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	rest, missed := drainParallel(t, pc, 64)
	if len(rest) != 84 || missed != 0 {
		t.Fatalf("rest of the pass: %d entries (missed %d), want 84 (0)", len(rest), missed)
	}
	for i, e := range rest {
		if e.Stamp != uint64(17+i) {
			t.Fatalf("entry %d: stamp %d, want %d", 16+i, e.Stamp, 17+i)
		}
	}
	if n, missed, err := pc.Next(buf); n != 0 || missed != 0 || err != nil {
		t.Fatalf("Next after the pass = (%d, %d, %v), want (0, 0, nil)", n, missed, err)
	}
	for name, c := range map[string]*PCursor{"late": late, "new": st.QueryParallel(Query{}, 2)} {
		es, missed := drainParallel(t, c, 64)
		c.Close()
		if len(es) != 105 || missed != 0 {
			t.Fatalf("%s cursor: %d entries (missed %d), want 105 (0)", name, len(es), missed)
		}
	}
}

// TestParallelNoSpuriousMissed: whatever the store does to segments a
// finished pass has already delivered — merge them, freeze them, retire
// them — the extra Next every drain loop makes reports nothing, so
// delivered + missed == matched holds for the query.
func TestParallelNoSpuriousMissed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		after func(t *testing.T, st *Store)
	}{
		{"Compact", Config{SegmentBytes: 1 << 20}, func(t *testing.T, st *Store) {
			if n, err := st.Compact(); err != nil || n != 4 {
				t.Fatalf("Compact = (%d, %v), want 4 sources merged", n, err)
			}
		}},
		{"CompactCold", tierCfg(), func(t *testing.T, st *Store) {
			sealEvery(t, st, 401, 410, 10) // newer data: the delivered segments age out
			if n, err := st.CompactCold(); err != nil || n < 4 {
				t.Fatalf("CompactCold = (%d, %v), want the 4 delivered segments frozen", n, err)
			}
		}},
		{"Retention", Config{SegmentBytes: 1 << 20, MaxBytes: 64 << 10}, func(t *testing.T, st *Store) {
			sealEvery(t, st, 401, 4000, 400)
			if st.Stats().EventsRetired < 400 {
				t.Fatalf("retention retired %d events, want the 400 delivered ones gone", st.Stats().EventsRetired)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), tc.cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer st.Close()
			sealEvery(t, st, 1, 400, 100)
			pc := st.QueryParallel(Query{}, 2)
			defer pc.Close()
			es, missed := drainParallel(t, pc, 64)
			if len(es) != 400 || missed != 0 {
				t.Fatalf("drain: %d events (missed %d), want 400 (0)", len(es), missed)
			}
			tc.after(t, st)
			if n, missed, err := pc.Next(make([]tracer.Entry, 64)); n != 0 || missed != 0 || err != nil {
				t.Fatalf("Next after the pass = (%d, %d, %v), want (0, 0, nil)", n, missed, err)
			}
		})
	}
}

// TestParallelCursorMissedOnRetention: retention deleting segments out
// from under a pass must surface through missed, never silently — every
// event of the snapshot is delivered exactly once or counted.
func TestParallelCursorMissedOnRetention(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	appendRange(t, st, 1, 2000)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	pc := st.QueryParallel(Query{}, 2)
	defer pc.Close()
	buf := make([]tracer.Entry, 8)
	n, missed, err := pc.Next(buf)
	if n == 0 || err != nil {
		t.Fatalf("first Next = (%d, %d, %v)", n, missed, err)
	}
	first := tracer.CloneEntries(nil, buf[:n])
	// Impose a byte budget far below what is stored and blow past it, so
	// retention retires segments of the snapshot mid-pass.
	st.mu.Lock()
	st.cfg.MaxBytes = 64 << 10
	st.mu.Unlock()
	appendRange(t, st, 2001, 4000)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st.Stats().EventsRetired == 0 {
		t.Fatal("retention retired nothing")
	}
	rest, m := drainParallel(t, pc, 64)
	missed += m
	if total := uint64(len(first)+len(rest)) + missed; total < 2000 {
		t.Fatalf("delivered %d + missed %d under-reports the 2000 of the snapshot", len(first)+len(rest), missed)
	}
	seen := make(map[uint64]bool, len(first)+len(rest))
	for _, e := range append(first, rest...) {
		if e.Stamp > 2000 {
			t.Fatalf("stamp %d delivered: appended after the snapshot", e.Stamp)
		}
		if seen[e.Stamp] {
			t.Fatalf("stamp %d delivered twice", e.Stamp)
		}
		seen[e.Stamp] = true
	}
}

// pollingTracer reads a store the way a polling client does: through
// snapshot cursors, a new one above the last stamp delivered whenever
// the current pass is over. For a store fed in stamp order that
// composes into the following cursor the conformance suite expects.
type pollingTracer struct{ *Tracer }

func (t pollingTracer) NewCursor() tracer.Cursor {
	return &pollingCursor{st: t.Store(), cur: t.Store().QueryParallel(Query{}, 4)}
}

func (t pollingTracer) ReadAll() ([]tracer.Entry, error) {
	cur := t.NewCursor()
	defer cur.Close()
	return tracer.Drain(cur, 1024)
}

type pollingCursor struct {
	st   *Store
	cur  *PCursor
	last uint64
}

func (c *pollingCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n, missed, err := c.cur.Next(batch)
	if n == 0 && err == nil {
		c.cur.Close()
		c.cur = c.st.QueryParallel(Query{MinStamp: c.last + 1}, 4)
		var m uint64
		n, m, err = c.cur.Next(batch)
		missed += m
	}
	if n > 0 {
		c.last = batch[n-1].Stamp
	}
	return n, missed, err
}

func (c *pollingCursor) Close() error { return c.cur.Close() }

// TestStoreParallelTracerConformance runs the repository-wide tracer
// conformance suite over parallel snapshot cursors: the cursor/batch
// contract must hold regardless of which read path answers it.
func TestStoreParallelTracerConformance(t *testing.T) {
	tracertest.Run(t, tracertest.Config{
		New: func(totalBytes, cores, threads int) (tracer.Tracer, error) {
			tr, err := NewTracer(t.TempDir(), totalBytes)
			if err != nil {
				return nil, err
			}
			return pollingTracer{tr}, nil
		},
	})
}

// TestStoreParallelStress races appenders, parallel cursors — full
// passes reopened back to back, and partial drains ending in Close — and
// retention against each other. Meant to run under -race. Invariants
// checked, per pass:
//
//   - stamps are non-decreasing from the first entry to the last;
//   - no stamp is delivered twice;
//   - delivered + missed accounts for the snapshot: it lies between what
//     the store held just before the pass's first Next and just after.
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
	// abort path while scans are in flight.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		buf := make([]tracer.Entry, 256)
		for !stop.Load() {
			pc := st.QueryParallel(Query{Limit: 700}, 2)
			var last uint64
			for calls := 0; calls < 3; calls++ {
				n, _, err := pc.Next(buf)
				if err != nil || n == 0 {
					break
				}
				for _, e := range buf[:n] {
					if e.Stamp < last {
						t.Errorf("short cursor: stamps regress: %d after %d", e.Stamp, last)
						pc.Close()
						return
					}
					last = e.Stamp
				}
			}
			pc.Close()
		}
	}()

	// held is what a store holds: appended less retired. Both counters
	// only grow, so readings taken around a moment bound it from both
	// sides.
	held := func(appended, retired uint64) uint64 { return appended - min(appended, retired) }
	buf := make([]tracer.Entry, 512)
	var passes, delivered, missed uint64
	pass := func() {
		before := st.Stats()
		pc := st.QueryParallel(Query{}, 3)
		defer pc.Close()
		var n, m uint64
		var last uint64
		var after Stats
		for first := true; ; first = false {
			k, mm, err := pc.Next(buf)
			if err != nil {
				t.Fatalf("pass %d: Next: %v", passes, err)
			}
			if first {
				after = st.Stats() // the snapshot lies between before and after
			}
			m += mm
			if k == 0 {
				break
			}
			for _, e := range buf[:k] {
				// Stamps are unique, so strictly increasing is both the
				// order and the no-duplicates invariant.
				if e.Stamp <= last {
					t.Fatalf("pass %d: stamp %#x after %#x", passes, e.Stamp, last)
				}
				last = e.Stamp
			}
			n += uint64(k)
		}
		lo, hi := held(before.Appends, after.EventsRetired), held(after.Appends, before.EventsRetired)
		if n+m < lo || n+m > hi {
			t.Fatalf("pass %d: delivered %d + missed %d outside the snapshot's [%d, %d]", passes, n, m, lo, hi)
		}
		passes, delivered, missed = passes+1, delivered+n, missed+m
	}

	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for draining := true; draining; {
		select {
		case <-writersDone:
			draining = false
		default:
			pass()
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
	pass() // over a store nobody appends to
	if total := uint64(writers * batches * batchSize); st.Stats().Appends != total {
		t.Fatalf("appended %d of %d", st.Stats().Appends, total)
	}
	t.Logf("passes=%d delivered=%d missed=%d", passes, delivered, missed)
}
