package store

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/tracer"
)

// renderFixture is a store holding every kind of set a CSV export reads
// in place, and the oracle: every row appended, stamps unique. Ordered
// rows frozen into cold files (filtered sets), ordered sealed row
// segments (header sets, one a min_stamp seeks into), segments two
// writers interleaved in, each unordered and overlapping its neighbours
// (even stamps from one writer, odd ones from the other, lagging), and
// the active tail.
type renderFixture struct {
	st  *Store
	all []tracer.Entry
}

func newRenderFixture(t *testing.T) *renderFixture {
	f := &renderFixture{}
	var err error
	f.st, err = Open(t.TempDir(), Config{SegmentBytes: 16 << 10, ColdAfterNs: 500_000, ColdBlockBytes: 4 << 10, ColdFileBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.st.Close() })
	f.add(t, mkRange(1, 800))
	f.seal(t)
	f.add(t, mkRange(801, 1400))
	if n, err := f.st.CompactCold(); n == 0 || err != nil {
		t.Fatalf("CompactCold: %d segments, %v", n, err)
	}
	const lag = 3
	for k := 0; k < 24+lag; k++ {
		for w, b := range []int{k, k - lag} {
			if b < 0 || b >= 24 {
				continue
			}
			es := make([]tracer.Entry, 50)
			for i := range es {
				es[i] = mkEntry(1401 + uint64(b*100+2*i+w))
			}
			f.add(t, es)
		}
	}
	f.seal(t)
	f.add(t, mkRange(3801, 3900))
	var cold, ordered, unordered int
	for _, s := range f.st.Segments() {
		switch {
		case s.Tier == "cold":
			cold++
		case s.Sealed && s.Ordered:
			ordered++
		case s.Sealed:
			unordered++
		}
	}
	if cold == 0 || ordered < 2 || unordered < 3 {
		t.Fatalf("fixture: %+v", f.st.Segments())
	}
	return f
}

func (f *renderFixture) add(t *testing.T, es []tracer.Entry) {
	t.Helper()
	if err := f.st.AppendEntries(es); err != nil {
		t.Fatalf("AppendEntries: %v", err)
	}
	f.all = append(f.all, es...)
}

func (f *renderFixture) seal(t *testing.T) {
	t.Helper()
	if err := f.st.Seal(); err != nil {
		t.Fatal(err)
	}
}

// want is export.CSV of the oracle's rows q selects, by stamp.
func (f *renderFixture) want(t *testing.T, q Query) []byte {
	t.Helper()
	var rows []tracer.Entry
	for i := range f.all {
		if e := &f.all[i]; q.Pred == nil || q.Pred.Match(e) {
			rows = append(rows, *e)
		}
	}
	slices.SortFunc(rows, func(a, b tracer.Entry) int { return cmp.Compare(a.Stamp, b.Stamp) })
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	var b bytes.Buffer
	if err := export.CSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// csvExport exports q through export.CSVCursor over a parallel cursor.
func csvExport(t *testing.T, st *Store, q Query, workers, batch int) ([]byte, error) {
	t.Helper()
	var b bytes.Buffer
	cur := st.QueryParallel(q, workers)
	_, _, err := export.CSVCursor(&b, cur, make([]tracer.Entry, batch))
	cur.Close()
	return b.Bytes(), err
}

// TestRenderedCSVMatchesOracle: a CSV export over a store cursor is
// export.CSV of the oracle's rows, byte for byte, whatever stands for
// the rows — frames walked, cold columns, header sets and filtered sets
// read in place, and the text rendered of them — under filters, stamp
// cuts inside sealed, unordered and active segments, and limits that
// end inside a stretch of rendered text. Every query is asked twice:
// the first ask renders the sets it reads in place whole, the second is
// served their text. The active segment's set is asked before and
// after appends, and across the rotation that seals the segment.
func TestRenderedCSVMatchesOracle(t *testing.T) {
	f := newRenderFixture(t)
	queries := []Query{
		{},
		{Limit: 1},
		{Limit: 1234},
		{Pred: where(btql.Between(btql.FStamp, 1000, 0))}, // seeks into an ordered sealed segment
		{Pred: where(btql.Between(btql.FStamp, 1000, 0)), Limit: 17},
		{Pred: where(btql.Between(btql.FStamp, 2222, 3333))}, // cuts unordered segments
		{Pred: where(btql.Between(btql.FStamp, 3850, 0))},    // cuts the active segment
		{Pred: where(btql.Between(btql.FStamp, 0, 3830)), Limit: 3000},
		{Pred: predOf(t, `tid == 3`)}, // filtered sets, and header sets under a test
		{Pred: where(btql.Between(btql.FStamp, 300, 2500), predOf(t, `tid == 3`).Expr()), Limit: 60},
		{Pred: predOf(t, `category == 2 && stamp >= 100`)},
		{Pred: predOf(t, `payload contains "payload-7"`)},
	}
	ask := func(when string) {
		t.Helper()
		for _, q := range queries {
			q.LengthsOnly = true
			want := f.want(t, q)
			for i, shape := range [][2]int{{1, 7}, {4, 1024}} {
				before := f.st.bcache.classCounters()
				got, err := csvExport(t, f.st, q, shape[0], shape[1])
				if err != nil {
					t.Fatalf("%s: %+v: %v", when, q, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, ask %d of %+v:\n%s\nwant\n%s", when, i, q, firstDiff(got, want), firstDiff(want, got))
				}
				after := f.st.bcache.classCounters()
				if i == 1 && after.misses[classText] != before.misses[classText] {
					t.Fatalf("%s, ask %d of %+v rendered %d sets again", when, i, q, after.misses[classText]-before.misses[classText])
				}
			}
		}
	}
	ask("at rest")
	if c := f.st.bcache.classCounters(); c.misses[classText] == 0 || c.hits[classText] == 0 || c.resident[classText] == 0 {
		t.Fatalf("no text rendered or served: %+v", c)
	}
	if _, size, _, ok := activeSet(f.st); !ok {
		t.Fatalf("no set of the active segment at byte %d", size)
	}
	f.add(t, mkRange(3901, 3950))
	ask("after an append to the active segment")
	f.add(t, mkRange(3951, 4000))
	f.seal(t)
	ask("after the rotation")
	f.add(t, mkRange(4001, 4020))
	ask("after the rotation and an append")
}

// firstDiff is where a first differs from b: the offset, and the lines
// of a around it.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := bytes.LastIndexByte(a[:max(0, bytes.LastIndexByte(a[:i], '\n'))], '\n') + 1
	hi := len(a)
	if j := bytes.IndexByte(a[i:], '\n'); j >= 0 {
		hi = i + j
	}
	return fmt.Sprintf("byte %d of %d: %q", i, len(a), a[lo:hi])
}
