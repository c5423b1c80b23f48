package store

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// aggRef computes the expected results by materializing the matching
// events through the ordinary cursor and replaying them into fresh
// aggregators: the streaming executor must agree with the
// row-at-a-time reference on every tier mix.
func aggRef(t *testing.T, st *Store, q Query, specs []btql.AggSpec) []btql.Result {
	t.Helper()
	es := drainStore(t, st, q)
	out := make([]btql.Result, len(specs))
	for i := range specs {
		a := specs[i].New()
		for j := range es {
			a.ObserveEntry(&es[j])
		}
		out[i] = a.Result()
	}
	return out
}

func predOf(t *testing.T, src string) *btql.Predicate {
	t.Helper()
	q, err := btql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q.Predicate()
}

func TestAggregateAcrossTiers(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1200, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	appendRange(t, st, 1201, 1300) // hot tail, unsealed

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggRate, WindowNs: 100_000},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
	}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"all", Query{}},
		{"field-filters", Query{Pred: where(btql.Between(btql.FStamp, 150, 0), btql.In(btql.FCore, []uint8{1, 2}))}},
		{"header-pred", Query{Pred: predOf(t, `category == 2 && core != 3`)}},
		{"stamp-pred", Query{Pred: predOf(t, `stamp >= 200 && stamp <= 400`)}},
		{"payload-pred", Query{Pred: predOf(t, `payload contains "payload-77"`)}},
	} {
		got, missed, err := st.Aggregate(tc.q, specs)
		if err != nil {
			t.Fatalf("%s: Aggregate: %v", tc.name, err)
		}
		if missed != 0 {
			t.Fatalf("%s: missed %d events with no retention running", tc.name, missed)
		}
		want := aggRef(t, st, tc.q, specs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: aggregate mismatch:\n got %+v\nwant %+v", tc.name, got, want)
		}
		if got[0].Events == 0 {
			t.Fatalf("%s: aggregate saw no events", tc.name)
		}
	}
}

// TestFoldUnderOwnership: a fold given an Ownership counts only the
// rows of the threads it is told it counts, fingerprints every row of a
// thread it owns under the slot that counts it, and only tallies the
// rows of threads it does not own — on every tier, against the same
// split made row by row over the ordinary cursor.
func TestFoldUnderOwnership(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1200, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	appendRange(t, st, 1201, 1300) // hot tail, unsealed

	// Three slots, this store in slot 1: a thread's rows are counted by
	// slot tid%4, and slot 3 stands for "not an owner".
	const self, slots = 1, 3
	countedBy := func(tid uint32) int {
		if x := int(tid % 4); x < slots {
			return x
		}
		return -1
	}
	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggRate, WindowNs: 100_000},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
		{Kind: btql.AggTopK, K: 3, Field: btql.FCategory},
	}
	for _, q := range []Query{
		{},
		{Pred: predOf(t, `category == 2 && core != 3`)},
		{Pred: where(btql.Between(btql.FStamp, 150, 0), predOf(t, `payload contains "payload-7"`).Expr())},
	} {
		part, err := st.AggregateSnapshot(q).Fold(specs, &Ownership{Self: self, Slots: slots, CountedBy: countedBy})
		if err != nil || part.Missed != 0 {
			t.Fatalf("Fold: missed %d, %v", part.Missed, err)
		}
		wantAggs := make([]*btql.Aggregator, len(specs))
		for i := range specs {
			wantAggs[i] = specs[i].New()
		}
		wantHeld := make([]Fingerprint, slots)
		var wantForeign uint64
		es := drainStore(t, st, q)
		for i := range es {
			switch x := countedBy(es[i].TID); {
			case x < 0:
				wantForeign++
			default:
				wantHeld[x].add(es[i].Stamp)
				if x == self {
					for _, a := range wantAggs {
						a.ObserveEntry(&es[i])
					}
				}
			}
		}
		for i := range specs {
			if got, want := part.Aggs[i].Result(), wantAggs[i].Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d: fold counted %+v, want %+v", i, got, want)
			}
		}
		if !reflect.DeepEqual(part.Held, wantHeld) || part.Foreign != wantForeign {
			t.Fatalf("fold holds %+v and %d foreign rows, want %+v and %d", part.Held, part.Foreign, wantHeld, wantForeign)
		}
		if wantForeign == 0 || wantHeld[0].Rows == 0 || wantHeld[self].Rows == 0 {
			t.Fatalf("fixture leaves a role empty: held %+v, foreign %d", wantHeld, wantForeign)
		}
	}
}

// TestAggregateColumnarSkips pins the executor's I/O discipline: a
// header-only aggregate never inflates v2 payload sections, and a
// predicate no block can satisfy prunes on metadata alone.
func TestAggregateColumnarSkips(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1200, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	count := []btql.AggSpec{{Kind: btql.AggCount}}

	base := st.Stats()
	res, _, err := st.Aggregate(Query{Pred: predOf(t, `category == 2`)}, count)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res[0].Events == 0 {
		t.Fatal("header-only aggregate matched nothing")
	}
	after := st.Stats()
	if after.PayloadSkips <= base.PayloadSkips {
		t.Fatalf("header-only aggregate inflated payload sections: skips %d -> %d",
			base.PayloadSkips, after.PayloadSkips)
	}

	// mkEntry TIDs are stamp%7: TID 1000 exists nowhere, so the block
	// header's TID range (and bloom) must veto every cold block.
	res, _, err = st.Aggregate(Query{Pred: predOf(t, `tid == 1000`)}, count)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res[0].Events != 0 {
		t.Fatalf("tid == 1000 matched %d events", res[0].Events)
	}
	final := st.Stats()
	if final.BlocksPruned <= after.BlocksPruned {
		t.Fatalf("absent-TID aggregate pruned no blocks: %d -> %d",
			after.BlocksPruned, final.BlocksPruned)
	}
}

// TestAggregateFoldsActiveHeaderSet: a fold reads the active segment's
// header set (scan.go), once a CSV export has built one at the
// snapshot's extent, instead of the frames: it opens no file. Once the
// segment has grown past that extent the fold walks it again, until an
// export builds the set of the new extent. The answers are the
// row-at-a-time reference's, and a fold builds no set of its own.
func TestAggregateFoldsActiveHeaderSet(t *testing.T) {
	lb, err := local.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rc := &readCounter{Backend: lb, opens: map[string]int{}, bytes: map[string]int{}}
	st, err := OpenBackend(rc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 300)
	q := Query{Pred: predOf(t, `category == 2 && stamp >= 20`)}
	specs := []btql.AggSpec{{Kind: btql.AggCount}, {Kind: btql.AggTopK, Field: btql.FTID, K: 3}}
	fold := func(what string) map[string]int {
		t.Helper()
		want := aggRef(t, st, q, specs)
		rc.take()
		got, _, err := st.Aggregate(q, specs)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v (%v), want %+v", what, got, err, want)
		}
		opens, bytes := rc.take()
		if len(opens) != len(bytes) {
			t.Fatalf("%s: opened %v, read %v", what, opens, bytes)
		}
		return bytes
	}
	export := func() {
		t.Helper()
		if _, err := csvExport(t, st, Query{LengthsOnly: true}, 1, 64); err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := activeSet(st); !ok {
			t.Fatal("the export built no set of the active segment")
		}
	}
	fold("before any export")
	if _, _, _, ok := activeSet(st); ok {
		t.Fatal("a fold built a set")
	}
	export()
	if bytes := fold("over the set"); len(bytes) != 0 {
		t.Fatalf("a fold over the set read %v", bytes)
	}
	appendRange(t, st, 301, 400)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	name, size, _, _ := activeSet(st)
	if bytes := fold("past the set"); int64(bytes[name]) < size-headerSize {
		t.Fatalf("a fold past the set read %d bytes of %s, want its %d", bytes[name], name, size-headerSize)
	}
	export()
	if bytes := fold("over the new set"); len(bytes) != 0 {
		t.Fatalf("a fold over the new set read %v", bytes)
	}
	// Sealed at the extent of its set, the segment keeps it, and a fold
	// whose stamp bound cuts through the segment — a boundary segment,
	// which no partial stands for — folds the set, as a cursor reads it:
	// it opens no file, its rows once in the block cache.
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 401, 500)
	export()
	q, specs = Query{Pred: predOf(t, `stamp >= 150`)}, []btql.AggSpec{{Kind: btql.AggCount}}
	if bytes := fold("a bound cutting the sealed segment"); len(bytes) != 0 {
		t.Fatalf("a fold cutting a sealed segment with a set read %v", bytes)
	}
}

// TestCorruptFrameFailsEverySurface: one byte of rot in a hot segment
// has to surface as ErrCorrupt from the one-worker cursor, the parallel
// cursor, the aggregate executor and the freeze alike, never as a
// silently wrong answer, and a reopen has to truncate the segment
// exactly before the rotten frame. Two places a read could look away:
// the tail magic of a frame its predicate does not select (the magic is
// what keeps the frame walk itself honest, so it is checked on every
// frame stepped over), and the checksum of a frame it does select. The
// checksum of a pruned frame is deferred with its decode: a read that
// selects the frame meets it, one that prunes it never hands out the
// corrupt bytes. The walks that select every frame — a sealed segment's
// header-set build, the freeze, recovery — check every frame, because
// what they make stands for all of them, the builds of the active
// segment's set at a later extent than the last one's included. A record padded past the size tracer.EncodeEvent gives its
// payload, under a checksum recomputed to match, is refused by every
// surface too.
func TestCorruptFrameFailsEverySurface(t *testing.T) {
	first := mkEntry(1) // category 1: `category == 2` never selects it
	for _, tc := range []struct {
		name   string
		off    int  // byte to flip, relative to the first frame; -1 pads frame 2 instead
		pruned bool // the filtered read never checks the flipped frame
		frame  int  // the frame the rot is in (0-based)
	}{
		// Byte 6 of frame 1's 8-byte tail sits in the magic half.
		{"magic of a pruned frame", first.WireSize() + 6, false, 0},
		// Frame 2 holds stamp 2 (category 2); its first payload byte.
		{"checksum of a selected frame", FrameSize(&first) + tracer.EventHeaderSize, false, 1},
		{"checksum of a pruned frame", tracer.EventHeaderSize, true, 0},
		{"padded record", -1, false, 1},
	} {
		rot := func(t *testing.T, path string) {
			if tc.off < 0 {
				padFrame(t, path, tc.frame)
			} else {
				flipByte(t, path, int64(headerSize+tc.off))
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			appendRange(t, st, 1, 100)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			path := filepath.Join(st.loc, st.segs[0].name)
			st.mu.Unlock()
			rot(t, path)

			q := Query{Pred: predOf(t, `category == 2`)}
			if tc.pruned {
				// The filtered read is whole without the frame; the read
				// that selects it fails.
				if es := drainStore(t, st, q); len(es) != 20 {
					t.Errorf("filtered read over the pruned frame: %d events, want 20", len(es))
				}
				q = Query{}
			}
			cur := st.Query(q)
			_, err = tracer.Drain(cur, 64)
			cur.Close()
			if !errors.Is(err, tracer.ErrCorrupt) {
				t.Errorf("Query: err = %v, want ErrCorrupt", err)
			}
			pc := st.QueryParallel(q, 2)
			_, err = tracer.Drain(pc, 64)
			pc.Close()
			if !errors.Is(err, tracer.ErrCorrupt) {
				t.Errorf("QueryParallel: err = %v, want ErrCorrupt", err)
			}
			res, _, err := st.Aggregate(q, []btql.AggSpec{{Kind: btql.AggCount}})
			if !errors.Is(err, tracer.ErrCorrupt) {
				t.Errorf("Aggregate: result %+v, err = %v, want ErrCorrupt", res, err)
			}
		})
		// A sealed segment read for lengths only: the walk that would build
		// its header set checks every frame, pruned ones too, so the flip
		// fails it whichever frame it is in, and nothing is cached — the
		// next walk fails again.
		t.Run(tc.name+", sealed, length-only", func(t *testing.T) {
			st, err := Open(t.TempDir(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			appendRange(t, st, 1, 100)
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			q := Query{Pred: predOf(t, `category == 2`), LengthsOnly: true}
			if es := drainStore(t, st, Query{Pred: q.Pred}); len(es) != 20 { // keeps payloads: builds no set
				t.Fatalf("before the flip: %d events, want 20", len(es))
			}
			st.mu.Lock()
			path := filepath.Join(st.loc, st.segs[0].name)
			st.mu.Unlock()
			rot(t, path)
			for walk := 0; walk < 2; walk++ {
				pc := st.QueryParallel(q, 2)
				_, err = tracer.Drain(pc, 64)
				pc.Close()
				if !errors.Is(err, tracer.ErrCorrupt) {
					t.Errorf("walk %d: err = %v, want ErrCorrupt", walk, err)
				}
				// One build attempted per walk, none admitted.
				if c := st.bcache.classCounters(); c.misses[classHeaders] != uint64(walk+1) || c.resident[classHeaders] != 0 || c.hits[classHeaders] != 0 {
					t.Errorf("walk %d: header-set counters %+v", walk, c)
				}
			}
		})
		// The freeze refuses the segment and leaves it as it was; a reopen
		// cuts it exactly before the rotten frame, and the rows before that
		// read back whole.
		t.Run(tc.name+", freeze and reopen", func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Config{ColdAfterNs: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()
			appendRange(t, st, 1, 100)
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			appendRange(t, st, 101, 110) // newer rows: the sealed segment has aged
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			name := st.segs[0].name
			st.mu.Unlock()
			path := filepath.Join(dir, name)
			rot(t, path)
			if n, err := st.CompactCold(); !errors.Is(err, tracer.ErrCorrupt) || n != 0 {
				t.Errorf("CompactCold: %d frozen, err = %v, want ErrCorrupt", n, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var seg bool
			for _, e := range ents {
				seg = seg || e.Name() == name
				if strings.HasPrefix(e.Name(), "col-") {
					t.Errorf("failed freeze left %s", e.Name())
				}
			}
			if !seg {
				t.Errorf("failed freeze removed its source %s", name)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			valid := int64(headerSize)
			for s := uint64(1); s <= uint64(tc.frame); s++ {
				e := mkEntry(s)
				valid += int64(FrameSize(&e))
			}
			if st, err = Open(dir, Config{}); err != nil {
				t.Fatal(err)
			}
			if s := st.Stats(); s.RecoveredTruncations != 1 || s.TornBytesDropped != uint64(fi.Size()-valid) {
				t.Errorf("reopen truncated %d segments by %d bytes, want 1 by %d", s.RecoveredTruncations, s.TornBytesDropped, fi.Size()-valid)
			}
			es := drainStore(t, st, Query{Pred: where(btql.Between(btql.FStamp, 0, 100))})
			if len(es) != tc.frame {
				t.Fatalf("reopen kept %d rows of the segment, want %d", len(es), tc.frame)
			}
			for i := range es {
				if es[i].Stamp != uint64(i+1) {
					t.Fatalf("row %d: stamp %d", i, es[i].Stamp)
				}
				checkEntry(t, es[i])
			}
		})
	}
	// Rot in a frame appended after the active segment's set was built
	// (scan.go): the CSV export at the new extent fails, again when asked
	// again, and caches nothing — the old extent's set stays as it was,
	// and no text is rendered — and the aggregate, which finds no set of
	// the new extent and walks the segment, fails as well.
	for _, rot := range []struct {
		name string
		off  func(e *tracer.Entry) int64 // byte to flip, relative to the frame
	}{
		{"magic", func(e *tracer.Entry) int64 { return int64(e.WireSize() + 6) }},
		{"checksum", func(*tracer.Entry) int64 { return tracer.EventHeaderSize }},
	} {
		t.Run(rot.name+" past the active set", func(t *testing.T) {
			st, err := Open(t.TempDir(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			appendRange(t, st, 1, 100)
			q := Query{LengthsOnly: true}
			if _, err := csvExport(t, st, q, 2, 64); err != nil {
				t.Fatal(err)
			}
			name, built, rows, ok := activeSet(st)
			if !ok || len(rows) != 100 {
				t.Fatalf("the export built %d rows of the active segment (%v), want 100", len(rows), ok)
			}
			appendRange(t, st, 101, 200)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			e := mkEntry(101)
			flipByte(t, filepath.Join(st.loc, name), built+rot.off(&e))
			before := st.bcache.classCounters()
			for ask := 0; ask < 2; ask++ {
				if _, err := csvExport(t, st, q, 2, 64); !errors.Is(err, tracer.ErrCorrupt) {
					t.Errorf("ask %d: err = %v, want ErrCorrupt", ask, err)
				}
				if _, _, _, ok := activeSet(st); ok {
					t.Errorf("ask %d: a set of the rotten extent was admitted", ask)
				}
				if c := st.bcache.classCounters(); c.resident != before.resident || c.misses[classText] != before.misses[classText] {
					t.Errorf("ask %d: the cache moved: %+v, was %+v", ask, c, before)
				}
			}
			if res, _, err := st.Aggregate(Query{}, []btql.AggSpec{{Kind: btql.AggCount}}); !errors.Is(err, tracer.ErrCorrupt) {
				t.Errorf("Aggregate: result %+v, err = %v, want ErrCorrupt", res, err)
			}
		})
	}
}

// padFrame rewrites frame i of the segment file at path as a record one
// tracer.Align unit longer than tracer.EncodeEvent writes for its
// payload, zero-filled, under a tail whose checksum matches it: a frame
// that every check but the record-size rule passes.
func padFrame(t *testing.T, path string, i int) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, size := headerSize, 0
	for ; ; i-- {
		if _, size, err = tracer.PeekRecord(img[off:]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			break
		}
		off += size + tailSize
	}
	rec := append(append([]byte(nil), img[off:off+size]...), make([]byte, tracer.Align)...)
	le64put(rec, le64(rec)+tracer.Align) // the size is word 0's low half
	tail := make([]byte, tailSize)
	le64put(tail, uint64(frameMagic)<<32|uint64(crc32.Checksum(rec, castagnoli)))
	out := append(append(append(img[:off:off], rec...), tail...), img[off+size+tailSize:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
