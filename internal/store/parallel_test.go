package store

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
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

// TestParallelMatchesSequential is the equivalence table of the scan
// surfaces. Over a store holding both tiers at once — a frozen v3 run,
// small sealed hot segments, one sealed by rotation and an unsealed
// tail — Query (one scan worker) must deliver exactly a brute-force reading of the
// fixture, QueryParallel at one and four workers exactly Query's result,
// and Aggregate a brute-force fold of that drain, for a spread of
// queries: field filters, the segment-pruning ones, BTQL header and
// payload predicates, limits.
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
	appendRange(t, st, 1401, 2400) // rotates once by size, tail unsealed
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ts := st.TierStats()
	if ts[TierCold].Segments == 0 || ts[TierHot].Segments < 2 {
		t.Fatalf("fixture does not span the tiers: %+v", ts)
	}
	for _, b := range st.ColdBlocks() {
		if b.Version != 3 {
			t.Fatalf("fixture froze a v%d block", b.Version)
		}
	}

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
	}
	// keep is the brute-force reading of each query, so Query — the drain
	// the other surfaces are compared against, which runs the same scan
	// they do — is itself checked against something that shares no code
	// with it.
	queries := []struct {
		q    Query
		keep func(e *tracer.Entry) bool
	}{
		{Query{}, func(e *tracer.Entry) bool { return true }},
		{Query{Pred: where(btql.Between(btql.FStamp, 500, 1500))}, func(e *tracer.Entry) bool { return e.Stamp >= 500 && e.Stamp <= 1500 }},
		{Query{Pred: where(btql.In(btql.FCategory, []uint8{2}))}, func(e *tracer.Entry) bool { return e.Category == 2 }},
		{Query{Pred: where(btql.Between(btql.FStamp, 100, 0), btql.In(btql.FCore, []uint8{0, 3}))}, func(e *tracer.Entry) bool { return (e.Core == 0 || e.Core == 3) && e.Stamp >= 100 }},
		{Query{Pred: where(btql.Between(btql.FTime, 700_000, 900_000))}, func(e *tracer.Entry) bool { return e.TS >= 700_000 && e.TS <= 900_000 }},
		{Query{Limit: 37}, func(e *tracer.Entry) bool { return true }},
		{Query{Pred: where(btql.Between(btql.FStamp, 1900, 0)), Limit: 250}, func(e *tracer.Entry) bool { return e.Stamp >= 1900 }},
		{Query{Pred: predOf(t, `tid == 3`)}, func(e *tracer.Entry) bool { return e.TID == 3 }},
		{Query{Pred: predOf(t, `category == 2 && core != 1`)}, func(e *tracer.Entry) bool { return e.Category == 2 && e.Core != 1 }},
		{Query{Pred: where(btql.Between(btql.FStamp, 300, 0), predOf(t, `payload contains "payload-77"`).Expr())}, func(e *tracer.Entry) bool {
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
			t.Fatalf("query %d: Query returned %d entries, brute force %d", qi, len(want), len(oracle))
		}
		for i := range want {
			if want[i].Stamp != oracle[i] {
				t.Fatalf("query %d: Query entry %d stamp %d, brute force %d", qi, i, want[i].Stamp, oracle[i])
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
// finished pass has already delivered — freeze them, retire them — the
// extra Next every drain loop makes reports nothing, so
// delivered + missed == matched holds for the query.
func TestParallelNoSpuriousMissed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		after func(t *testing.T, st *Store)
	}{
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

// TestStoreParallelTracerConformance runs the repository-wide tracer
// conformance suite over the adapter's snapshot cursors with four scan
// workers (TestStoreTracerConformance runs it with one): the
// cursor/batch contract must hold whatever the pool size.
func TestStoreParallelTracerConformance(t *testing.T) {
	tracertest.Run(t, tracertest.Config{
		New: func(totalBytes, cores, threads int) (tracer.Tracer, error) {
			tr, err := NewTracer(t.TempDir(), totalBytes)
			if err != nil {
				return nil, err
			}
			tr.workers = 4
			return tr, nil
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

// runShapes builds the inputs the run merge meets and might meet: what
// an unordered segment really is (a few writers' batches interleaving),
// and the shapes that degenerate it.
func runShapes(n int, rng *rand.Rand) map[string][]tracer.Entry {
	mk := func(stamps []uint64) []tracer.Entry {
		es := make([]tracer.Entry, len(stamps))
		for i, s := range stamps {
			es[i] = tracer.Entry{Stamp: s, TS: uint64(i)} // TS remembers the input position
		}
		return es
	}
	// interleaved(w): w writers reserve 256-stamp batches round-robin and
	// append them in a shuffled order, a window of 2w batches at a time.
	interleaved := func(w int) []uint64 {
		var batches [][]uint64
		for s := uint64(1); len(batches)*256 < n; s += 256 {
			b := make([]uint64, 256)
			for i := range b {
				b[i] = s + uint64(i)
			}
			batches = append(batches, b)
		}
		for lo := 0; lo < len(batches); lo += 2 * w {
			win := batches[lo:min(lo+2*w, len(batches))]
			rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
		}
		return slices.Concat(batches...)[:n]
	}
	seq := func(f func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return map[string][]tracer.Entry{
		"sorted":         mk(seq(func(i int) uint64 { return uint64(i + 1) })),
		"interleaved-2":  mk(interleaved(2)),
		"interleaved-3":  mk(interleaved(3)),
		"reversed":       mk(seq(func(i int) uint64 { return uint64(n - i) })),
		"all-equal":      mk(seq(func(int) uint64 { return 7 })),
		"random":         mk(seq(func(int) uint64 { return uint64(rng.Intn(n)) })),
		"sawtooth":       mk(seq(func(i int) uint64 { return uint64(i%5)*1000 + uint64(i/5) })),
		"two-equal-runs": mk(seq(func(i int) uint64 { return uint64(i % (n/2 + 1)) })),
	}
}

// TestRunMergeMatchesSort holds the run merge to slices.SortStableFunc
// over every shape at sizes around the edges: the same entries in the
// same order, equal stamps in input order — which is what lets a header
// set, sorted once, stand in for the rows a walk sorts — the
// already-sorted input returned as it came, and the merger reusable
// from call to call.
func TestRunMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var rm runMerger // one merger across all cases: buffers carry over
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
		for name, es := range runShapes(n, rng) {
			want := slices.Clone(es)
			slices.SortStableFunc(want, func(a, b tracer.Entry) int { return cmp.Compare(a.Stamp, b.Stamp) })
			in := slices.Clone(es)
			got := rm.sort(in)
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d entries out, %d in", name, n, len(got), len(want))
			}
			seen := make([]bool, n)
			for i := range got {
				if got[i].Stamp != want[i].Stamp || got[i].TS != want[i].TS {
					t.Fatalf("%s/%d: entry %d is input position %d (stamp %d), a stable sort has %d (stamp %d)",
						name, n, i, got[i].TS, got[i].Stamp, want[i].TS, want[i].Stamp)
				}
				if pos := got[i].TS; seen[pos] || es[pos].Stamp != got[i].Stamp {
					t.Fatalf("%s/%d: entry %d (input position %d) duplicated or altered", name, n, i, pos)
				}
				seen[got[i].TS] = true
			}
			if sorted := slices.IsSortedFunc(es, func(a, b tracer.Entry) int { return cmp.Compare(a.Stamp, b.Stamp) }); sorted && n > 0 && &got[0] != &in[0] {
				t.Fatalf("%s/%d: sorted input was copied", name, n)
			}
		}
	}
}

// TestParallelHoldsWhatOverlaps pins what a pass keeps in memory: the
// chunks of the segments the merge is in and of the `workers` next ones,
// however many segments the snapshot has and whether or not one of them
// is unordered — an unordered segment used to cost every segment a
// chunk before the first row was out. Every chunk a cursor has made is
// in its pool or retired when the pass ends.
func TestParallelHoldsWhatOverlaps(t *testing.T) {
	const segs, per = 40, 100
	for _, unordered := range []bool{false, true} {
		st, err := Open(t.TempDir(), Config{SegmentBytes: 32 << 10})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for k := uint64(0); k < segs; k++ {
			from, to := k*per+1, (k+1)*per
			if unordered && (k == 3 || k == 20) {
				// Two writers' batches landing out of turn.
				appendRange(t, st, from+per/2, to)
				appendRange(t, st, from, from+per/2-1)
			} else {
				appendRange(t, st, from, to)
			}
			if err := st.Seal(); err != nil {
				t.Fatalf("Seal: %v", err)
			}
		}
		var unord int
		for _, s := range st.Segments() {
			if !s.Ordered {
				unord++
			}
		}
		if want := map[bool]int{false: 0, true: 2}[unordered]; unord != want {
			t.Fatalf("fixture has %d unordered segments, want %d", unord, want)
		}
		for _, workers := range []int{1, 4} {
			pc := st.QueryParallel(Query{}, workers)
			got, missed := drainParallel(t, pc, 64)
			if missed != 0 || len(got) != segs*per {
				t.Fatalf("unordered=%v workers=%d: %d entries, missed %d", unordered, workers, len(got), missed)
			}
			for i := range got {
				if got[i].Stamp != uint64(i+1) {
					t.Fatalf("unordered=%v workers=%d: entry %d has stamp %d", unordered, workers, i, got[i].Stamp)
				}
				checkEntry(t, got[i])
			}
			// A stream holds at most a chunk in the merge, one in its
			// channel, one being scanned and one gathering thin rows.
			made := len(pc.pool.free) + len(pc.retired)
			if limit := 4 * (workers + 2); made > limit {
				t.Errorf("unordered=%v workers=%d: the pass made %d chunks over %d segments, want at most %d", unordered, workers, made, segs, limit)
			}
			pc.Close()
		}
		st.Close()
	}
}

// TestParallelThinRowsLeaveTheirSpan: a selective query's matches are
// copied out of the spans they were found in, so one batch of them does
// not hold a 256 KiB span apiece until the next Next.
func TestParallelThinRowsLeaveTheirSpan(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 4 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	const n = 60_000 // a dozen spans in one segment
	for s := uint64(1); s <= n; s += 5000 {
		appendRange(t, st, s, s+4999)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if segs := st.Segments(); len(segs) != 1 || segs[0].Bytes < 8*scanSpanBytes {
		t.Fatalf("fixture: %d segments, first %d bytes", len(segs), segs[0].Bytes)
	}
	// One row in 105: some forty to a span.
	q := Query{Pred: predOf(t, `tid == 3 && category == 2 && level == 1`)}
	want := drainStore(t, st, q)
	pc := st.QueryParallel(q, 1)
	defer pc.Close()
	batch := make([]tracer.Entry, 4096)
	k, _, err := pc.Next(batch)
	if err != nil || k != len(want) || k < 400 {
		t.Fatalf("Next: %d entries, want all %d in one batch: %v", k, len(want), err)
	}
	for i := range want {
		if batch[i].Stamp != want[i].Stamp {
			t.Fatalf("entry %d: stamp %d, want %d", i, batch[i].Stamp, want[i].Stamp)
		}
		checkEntry(t, batch[i])
	}
	held := len(pc.retired)
	for _, ps := range pc.streams {
		if ps.cur != nil {
			held++
		}
	}
	if held > 2 {
		t.Fatalf("the batch holds %d chunks for %d rows out of a dozen spans", held, k)
	}
}

// TestChunkTake: rows are copied while their payloads fit the buffer the
// rows before them alias, and an empty chunk takes everything.
func TestChunkTake(t *testing.T) {
	src := []tracer.Entry{
		{Stamp: 1, Payload: []byte("abcd")},
		{Stamp: 2},
		{Stamp: 3, Payload: []byte("efghij")},
		{Stamp: 4, Payload: []byte("k")},
	}
	ck := &pchunk{data: make([]byte, 0, 8)}
	if rest := ck.take(src[:2]); rest != nil || len(ck.entries) != 2 {
		t.Fatalf("took %d, left %d", len(ck.entries), len(rest))
	}
	held := &ck.data[:1][0]
	src[0].Payload[0] = 'X' // the copy does not alias its source
	if string(ck.entries[0].Payload) != "abcd" || ck.entries[1].Payload != nil {
		t.Fatalf("copied %q and %v", ck.entries[0].Payload, ck.entries[1].Payload)
	}
	// Six more bytes do not fit behind the four, and the buffer must not
	// move under the rows that alias it.
	rest := ck.take(src[2:])
	if len(rest) != 2 || rest[0].Stamp != 3 || len(ck.entries) != 2 || &ck.data[:1][0] != held {
		t.Fatalf("took %d, left %d", len(ck.entries), len(rest))
	}
	ck.reset()
	if rest = ck.take(rest); rest != nil || len(ck.entries) != 2 || string(ck.entries[0].Payload) != "efghij" || string(ck.entries[1].Payload) != "k" {
		t.Fatalf("after reset: %d entries, %d left", len(ck.entries), len(rest))
	}
	if &ck.data[:1][0] != held {
		t.Fatalf("seven bytes did not fit the eight-byte buffer")
	}
	ck.reset()
	big := []tracer.Entry{{Stamp: 5, Payload: bytes.Repeat([]byte("z"), 100)}}
	if rest = ck.take(big); rest != nil || string(ck.entries[0].Payload) != string(big[0].Payload) {
		t.Fatalf("an empty chunk must take any row")
	}
}
