package store

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"btrace/internal/btql"
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
		{"field-filters", Query{Cores: []uint8{1, 2}, MinStamp: 150}},
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
		{Pred: predOf(t, `payload contains "payload-7"`), MinStamp: 150},
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

// TestCorruptFrameFailsEverySurface: one byte of rot in a hot segment
// has to surface as ErrCorrupt from the one-worker cursor, the parallel
// cursor and the aggregate executor alike, never as a silently wrong
// answer. Two places a surface could look away: the tail magic of a
// frame its predicate does not select (the magic is what keeps the
// frame walk itself honest, so it is checked on every frame stepped
// over), and the checksum of a frame it does select. The checksum of a
// pruned frame is deferred with its decode: a read that selects the
// frame meets it, one that prunes it never hands out the corrupt bytes.
func TestCorruptFrameFailsEverySurface(t *testing.T) {
	first := mkEntry(1) // category 1: `category == 2` never selects it
	for _, tc := range []struct {
		name   string
		off    int  // byte to flip, relative to the first frame
		pruned bool // the filtered read never checks the flipped frame
	}{
		// Byte 6 of frame 1's 8-byte tail sits in the magic half.
		{"magic of a pruned frame", first.WireSize() + 6, false},
		// Frame 2 holds stamp 2 (category 2); its first payload byte.
		{"checksum of a selected frame", FrameSize(&first) + tracer.EventHeaderSize, false},
		{"checksum of a pruned frame", tracer.EventHeaderSize, true},
	} {
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
			flipByte(t, path, int64(headerSize+tc.off))

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
	}
}
