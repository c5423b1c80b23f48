package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// The column walker against the row-at-a-time reading it replaced: the
// query's field filters checked inline and its predicate's MatchHeader
// on every row of every block, then Predicate.Match on the rows they
// let through. The fixture is built to be unkind to bitmaps and
// dictionaries.

// fieldQuery is a query drawn in parts — stamp and time bounds (a zero
// upper bound unbounded), core and category lists (empty = all) and a
// BTQL filter (nil = none) — so that an oracle can check each part with
// compares of its own (matchHeader, match), independent of the BTQL the
// store is asked: the parts' conjunction, which lower puts in Query.Pred.
type fieldQuery struct {
	Query
	minStamp, maxStamp, minTS, maxTS uint64
	cores, cats                      []uint8
	filter                           *btql.Predicate
}

// lower sets the query's predicate to its parts ANDed, in that order.
func (q *fieldQuery) lower() {
	q.Pred = where(btql.Between(btql.FStamp, q.minStamp, q.maxStamp), btql.Between(btql.FTime, q.minTS, q.maxTS),
		btql.In(btql.FCore, q.cores), btql.In(btql.FCategory, q.cats), q.filter.Expr())
}

// matchHeader is the reference for a row's header: one compare per
// bound and a list search, then the filter's header test.
func (q *fieldQuery) matchHeader(e *tracer.Entry) bool {
	if e.Stamp < q.minStamp || (q.maxStamp > 0 && e.Stamp > q.maxStamp) {
		return false
	}
	if e.TS < q.minTS || (q.maxTS > 0 && e.TS > q.maxTS) {
		return false
	}
	if len(q.cores) > 0 && !slices.Contains(q.cores, e.Core) ||
		len(q.cats) > 0 && !slices.Contains(q.cats, e.Category) {
		return false
	}
	return q.filter == nil || q.filter.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level)
}

// match is matchHeader and the filter's exact test.
func (q *fieldQuery) match(e *tracer.Entry) bool {
	return q.matchHeader(e) && (q.filter == nil || q.filter.Match(e))
}

// kernelFixture freezes four segments into a cold file each and leaves
// a fifth hot. Even segments are stamp-ordered, odd ones shuffled; each
// draws its categories from a set of its own, all but the last with a
// value at or past 63 — where the header bitmaps stop telling values
// apart, so a constant the dictionary lacks reaches the kernels; TIDs
// reach 2^24-1; blocks hold a few hundred rows, no multiple of 64.
func kernelFixture(t testing.TB) (*Store, []tracer.Entry) {
	t.Helper()
	st, err := Open(t.TempDir(), Config{SegmentBytes: 64 << 10, ColdAfterNs: 1, ColdBlockBytes: 16 << 10, ColdFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(15))
	segCats := [][]uint8{{2, 11, 70}, {11, 70, 200}, {64, 100}, {0, 2, 11, 17}}
	tids := []uint32{5, 6, 1 << 16, 70_000, 0xFFFFFF}
	cores := []uint8{0, 1, 7, 63, 64, 255}
	words := []string{"", "alloc", "oom kill", "alloc oom", "x"}
	var all []tracer.Entry
	stamp := uint64(1000)
	for seg, cats := range segCats {
		var es []tracer.Entry
		for i := 0; i < 600; i++ {
			stamp += 1 + uint64(rng.Intn(3))
			e := tracer.Entry{
				Stamp: stamp, TS: stamp*1000 + uint64(rng.Intn(5000)),
				Core: cores[rng.Intn(len(cores))], TID: tids[rng.Intn(len(tids))],
				Category: cats[rng.Intn(len(cats))], Level: uint8(rng.Intn(4)),
			}
			if w := words[rng.Intn(len(words))]; w != "" {
				e.Payload = []byte(fmt.Sprintf("%s #%d", w, rng.Intn(100)))
			}
			es = append(es, e)
		}
		if seg%2 == 1 {
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		if err := st.AppendEntries(es); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		all = append(all, es...)
	}
	// One event far in the future ages everything sealed before it.
	last := tracer.Entry{Stamp: stamp + 1, TS: 1 << 40, Category: 2}
	if err := st.AppendEntries([]tracer.Entry{last}); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}

	var ordered, ragged, wideTID, shortDict bool
	for _, sn := range coldSnaps(st) {
		ordered = ordered || sn.ordered
		for i := range sn.blocks {
			b := &sn.blocks[i]
			if b.v2 == nil {
				t.Fatal("fixture froze a v1 block")
			}
			ragged = ragged || b.meta.count%64 != 0 && b.meta.count > 64
			wideTID = wideTID || b.v2.maxTID >= 1<<16
			shortDict = shortDict || b.meta.catBits>>63 != 0 && b.v2.dictSize < 4
		}
	}
	if n := len(coldSnaps(st)); n != 4 || !ordered || !ragged || !wideTID || !shortDict {
		t.Fatalf("fixture lacks a case: %d cold files, ordered=%v ragged=%v wideTID=%v shortDict=%v", n, ordered, ragged, wideTID, shortDict)
	}
	return st, append(all, last)
}

func coldSnaps(st *Store) []segSnap {
	st.mu.Lock()
	defer st.mu.Unlock()
	var snaps []segSnap
	for _, s := range st.segs {
		if s.isCold() {
			snaps = append(snaps, snapOf(s, 0))
		}
	}
	return snaps
}

// checkColumnWalker runs q's column walker over every cold block of st
// and holds it to the row-by-row oracle over the same block's meta
// section decoded whole, each row's payload taken from es, the entries
// that went in: the selection is exactly the rows q.matchHeader passes
// (and the lowered predicate's MatchHeader, which the frame walker asks), the
// rows emitted exactly those that also pass Predicate.Match, in order,
// field for field, and the aggregate sink counts as many. A block the
// block rung would have pruned must select nothing.
func checkColumnWalker(t testing.TB, st *Store, es []tracer.Entry, q fieldQuery) {
	t.Helper()
	payloads := make(map[uint64][]byte, len(es))
	for i := range es {
		payloads[es[i].Stamp] = es[i].Payload
	}
	cq := compile(q.Query)
	for _, sn := range coldSnaps(st) {
		s, _, err := st.openScan(cq, &sn)
		if err != nil || s == nil {
			t.Fatalf("openScan %s: %v", sn.name, err)
		}
		for bi := range sn.blocks {
			b := &sn.blocks[bi]
			raw, err := readInflate(s.f, b.off, b.v2.metaLen, b.v2.metaRawLen, b.v2.metaCRC)
			if err != nil {
				t.Fatal(err)
			}
			var cb decodedCols
			if err := decodeColumns(raw, b, &cb); err != nil {
				t.Fatal(err)
			}
			var wantSel []int32
			var want []tracer.Entry
			for r := range cb.stamps {
				e := tracer.Entry{
					Stamp: cb.stamps[r], TS: cb.ts[r], Core: cb.cores[r], TID: cb.tids[r],
					Category: cb.cats[r], Level: cb.levels[r], Payload: payloads[cb.stamps[r]],
				}
				if int(cb.payOff[r+1]-cb.payOff[r]) != len(e.Payload) {
					t.Fatalf("%s block %d row %d: payload length column says %d, the entry had %d", sn.name, bi, r, cb.payOff[r+1]-cb.payOff[r], len(e.Payload))
				}
				raw := q.matchHeader(&e)
				if got := cq.pred.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level); got != raw {
					t.Fatalf("%s block %d row %d (%+v): lowered MatchHeader = %v, the field checks say %v", sn.name, bi, r, e, got, raw)
				}
				exact := q.match(&e)
				if got := cq.pred.Match(&e); got != exact {
					t.Fatalf("%s block %d row %d (%+v): lowered Match = %v, the field checks say %v", sn.name, bi, r, e, got, exact)
				}
				if !raw {
					continue
				}
				wantSel = append(wantSel, int32(r))
				if exact {
					want = append(want, e)
				}
			}
			if len(wantSel) > 0 && !cq.matchColdBlock(b) {
				t.Fatalf("%s block %d: the block rung prunes a block with %d matching rows", sn.name, bi, len(wantSel))
			}

			ck := new(pchunk)
			if err := s.columns(b, ck); err != nil {
				t.Fatalf("%s block %d: %v", sn.name, bi, err)
			}
			if got := s.sel.Rows(nil); !slices.Equal(got, wantSel) {
				t.Fatalf("%s block %d (%d rows, ordered=%v): selection differs from the field checks:\n got %v\nwant %v",
					sn.name, bi, b.meta.count, sn.ordered, got, wantSel)
			}
			if len(ck.entries) != len(want) {
				t.Fatalf("%s block %d: emitted %d rows, want %d", sn.name, bi, len(ck.entries), len(want))
			}
			for i, e := range ck.entries {
				w := want[i]
				if e.Stamp != w.Stamp || e.TS != w.TS || e.Core != w.Core || e.TID != w.TID ||
					e.Category != w.Category || e.Level != w.Level || !bytes.Equal(e.Payload, w.Payload) {
					t.Fatalf("%s block %d row %d: emitted %+v, want %+v", sn.name, bi, i, e, w)
				}
			}
			count := btql.AggSpec{Kind: btql.AggCount}
			agg := &aggSink{aggs: []*btql.Aggregator{count.New()}}
			if err := s.columns(b, agg); err != nil {
				t.Fatal(err)
			}
			if n := agg.aggs[0].Result().Events; n != uint64(len(want)) {
				t.Fatalf("%s block %d: aggregate sink counted %d rows, want %d", sn.name, bi, n, len(want))
			}
		}
		s.f.Close()
	}
}

// randExpr draws a predicate over all six header fields, all six
// operators and in lists, &&, || and !, with payload matches as leaves
// at any depth (so under ! too). Constants come from the fixture's value ranges, off
// by one now and then, so that comparisons land on and beside real
// values.
func randExpr(rng *rand.Rand, es []tracer.Entry, depth int) btql.Expr {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return &btql.And{L: randExpr(rng, es, depth-1), R: randExpr(rng, es, depth-1)}
		case 1:
			return &btql.Or{L: randExpr(rng, es, depth-1), R: randExpr(rng, es, depth-1)}
		default:
			return &btql.Not{X: randExpr(rng, es, depth-1)}
		}
	}
	if rng.Intn(6) == 0 {
		return &btql.PayloadMatch{Prefix: rng.Intn(2) == 0, Needle: []string{"alloc", "oom", "x #1", ""}[rng.Intn(4)]}
	}
	f := btql.Field(rng.Intn(6))
	val := func() uint64 {
		e := es[rng.Intn(len(es))]
		val := [...]uint64{e.Stamp, e.TS, uint64(e.Core), uint64(e.TID), uint64(e.Category), uint64(e.Level)}[f]
		switch rng.Intn(8) {
		case 0:
			val++
		case 1:
			val--
		case 2:
			val = []uint64{0, 63, 64, 255, 256, 1 << 32, ^uint64(0)}[rng.Intn(7)]
		}
		return val
	}
	if rng.Intn(4) == 0 {
		in := &btql.InList{Field: f, Vals: make([]uint64, rng.Intn(6))}
		for i := range in.Vals {
			in.Vals[i] = val()
		}
		return in
	}
	return &btql.Cmp{Field: f, Op: btql.CmpOp(rng.Intn(6)), Val: val()}
}

func TestColumnKernelsMatchRowOracle(t *testing.T) {
	st, es := kernelFixture(t)
	rng := rand.New(rand.NewSource(2025))
	pick := func() uint64 { return es[rng.Intn(len(es))].Stamp }
	for i := 0; i < 400; i++ {
		var q fieldQuery
		if rng.Intn(4) > 0 {
			q.filter = btql.Compile(randExpr(rng, es, 3))
		}
		// The store's own rungs: stamp and time hulls (a stamp bound inside
		// an ordered block cuts it) and the core and category sets.
		if rng.Intn(3) == 0 {
			q.minStamp = pick()
		}
		if rng.Intn(3) == 0 {
			q.maxStamp = pick()
		}
		if rng.Intn(5) == 0 {
			q.minTS = pick() * 1000
		}
		if rng.Intn(5) == 0 {
			q.maxTS = pick()*1000 + 2500
		}
		if rng.Intn(5) == 0 {
			q.cores = []uint8{0, 64, uint8(rng.Intn(256))}
		}
		if rng.Intn(5) == 0 {
			q.cats = []uint8{11, 100, uint8(rng.Intn(256))}
		}
		q.lower()
		checkColumnWalker(t, st, es, q)
		if t.Failed() {
			t.Fatalf("query %d: pred %v", i, q.Pred.Expr())
		}
	}
	// And the surfaces end to end, against the entries that went in.
	for _, src := range []string{
		`category == 100`, `category != 70 && tid >= 65536`, `!(payload contains "oom") && core > 63`,
		`tid == 16777215 || level < 1`, `!(category == 11 || payload prefix "alloc")`,
		`tid in (5, 70000, 16777215) && category in (100, 17, 3)`, `!(tid in (6, 65536)) && core in (0, 255)`,
	} {
		q := Query{Pred: predOf(t, src)}
		var want []uint64
		for i := range es {
			if q.Pred.Match(&es[i]) {
				want = append(want, es[i].Stamp)
			}
		}
		pc := st.QueryParallel(q, 2)
		got, _ := drainParallel(t, pc, 97)
		pc.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", src, len(got), len(want))
		}
		res, _, err := st.Aggregate(q, []btql.AggSpec{{Kind: btql.AggCount}, {Kind: btql.AggTopK, K: 3, Field: btql.FCategory}})
		if err != nil || res[0].Events != uint64(len(want)) {
			t.Fatalf("%s: aggregate counted %d (%v), want %d", src, res[0].Events, err, len(want))
		}
	}
}

// FuzzColumnKernels feeds the differential check BTQL source text,
// seeded from the parser's own corpus, plus a stamp window.
func FuzzColumnKernels(f *testing.F) {
	st, es := kernelFixture(f)
	lo, hi := es[0].Stamp, es[len(es)-1].Stamp
	for _, src := range []string{
		"category == 2 && time >= 5ms", `payload contains "oom" || !(core == 0)`,
		"{ stamp >= 1100 && stamp < 2000 }", "tid == 65536", `!(payload prefix "alloc") && category >= 64`,
		"core == 18446744073709551615", "level != 0 || tid < 6",
		"tid in (5, 65536, 16777215) && !(category in (11, 64))", `stamp in (1100, 1101, 1102) || core in (63, 64) && payload contains "oom"`,
	} {
		f.Add(src, lo+300, hi-300)
	}
	corpus, _ := filepath.Glob(filepath.Join("..", "btql", "testdata", "fuzz", "*", "*"))
	for _, name := range corpus {
		file, err := os.Open(name)
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			if lit, ok := strings.CutPrefix(sc.Text(), "string("); ok {
				if src, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
					f.Add(src, uint64(0), uint64(0))
				}
			}
		}
		file.Close()
	}
	f.Fuzz(func(t *testing.T, src string, minStamp, maxStamp uint64) {
		bq, err := btql.Parse(src)
		if err != nil {
			return
		}
		q := fieldQuery{minStamp: minStamp, maxStamp: maxStamp}
		if bq.Filter != nil {
			q.filter = bq.Predicate()
		}
		q.lower()
		checkColumnWalker(t, st, es, q)
	})
}

// TestCountAggregateCacheFootprint: the first header-only aggregate
// pays, in cache, for what it reads — the meta sections and the time
// column its result's min/max come from — and leaves behind that and its
// own answer per sealed segment, nothing else; the second is served
// that answer, and looks no section up at all.
func TestCountAggregateCacheFootprint(t *testing.T) {
	st, _ := kernelFixture(t)
	var coldEvents uint64
	for _, sn := range coldSnaps(st) {
		coldEvents += sn.count
	}
	q := Query{Pred: predOf(t, `category == 11`)}
	count := []btql.AggSpec{{Kind: btql.AggCount}}
	first, _, err := st.Aggregate(q, count)
	if err != nil || first[0].Events == 0 {
		t.Fatalf("Aggregate: %+v, %v", first, err)
	}
	st.bcache.mu.Lock()
	size := st.bcache.size
	sections := map[section]int{}
	for k := range st.bcache.m {
		sections[k.sec]++
	}
	st.bcache.mu.Unlock()
	if perEvent := float64(size) / float64(coldEvents); perEvent > 20 {
		t.Fatalf("count() left %d cache bytes for %d cold events: %.1f B/event, want <= 20", size, coldEvents, perEvent)
	}
	if sections[secMeta] == 0 || sections[secTimes] == 0 ||
		sections[secStamps]+sections[secTIDs]+sections[secPayOff]+sections[secPayload] != 0 {
		t.Fatalf("count() cached sections %v, want only meta (%d), times (%d) and partials (%d)", sections, secMeta, secTimes, secPartial)
	}
	before := st.bcache.classCounters()
	// One partial per file the category bitmaps let through, ~230 B each.
	if n := sections[secPartial]; n == 0 || uint64(n) != before.misses[classPartial] || before.resident[classPartial] > int64(300*n) {
		t.Fatalf("count() left %d partials (%d B) after %d partial misses", n, before.resident[classPartial], before.misses[classPartial])
	}
	second, _, err := st.Aggregate(q, count)
	if err != nil || !reflect.DeepEqual(second, first) {
		t.Fatalf("second Aggregate: %+v (%v), want %+v", second, err, first)
	}
	after := st.bcache.classCounters()
	if after.misses != before.misses {
		t.Fatalf("second run inflated, decoded or folded again: misses %v -> %v", before.misses, after.misses)
	}
	before.hits[classPartial] += before.misses[classPartial]
	if after.hits != before.hits {
		t.Fatalf("second run was not served by the partials alone: hits %v, want %v", after.hits, before.hits)
	}
}

// TestColdFileBytesPinned: this fixture's cold file, byte for byte, as
// the last commit that also merged row segments wrote it (the fixture
// seals only full segments, which no merge ever took, so that commit
// froze exactly what this one does). The on-disk format is not the read
// path's to change, nor a refactor of the writer's. (The bytes include
// DEFLATE streams, so the digest also pins compress/flate's BestSpeed
// output; should a toolchain ever change that, regenerate it from a
// checkout of this commit under the new toolchain. The v2 bytes this
// test pinned before live on as testdata/cold-v2.)
func TestColdFileBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		blockBytes int // 4 KiB: 74-row blocks of one chunk; 32 KiB: ~590 rows, five chunks
		want       string
	}{
		{"one-chunk-blocks", 4 << 10, "4560820efff606ca40388d194b213f03f455b935965b2311236a3957d0fa8e9f"},
		{"five-chunk-blocks", 32 << 10, "4f3b9b6cab036b7057cd931a2317a802d6b2793f163c698336adee93e9a60997"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tierCfg()
			cfg.ColdBlockBytes = tc.blockBytes
			st, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Rotation seals four full segments (583 rows each); the
			// active one holds the newest time and stays hot.
			appendRange(t, st, 1, 2400)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.CompactTick(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := filepath.Glob(filepath.Join(dir, "col-*.blk"))
			if err != nil || len(names) != 1 {
				t.Fatalf("cold files %v (%v), want exactly one", names, err)
			}
			raw, err := os.ReadFile(names[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != tc.want {
				t.Fatalf("%s: %d bytes, sha256 %s, want %s", filepath.Base(names[0]), len(raw), got, tc.want)
			}
		})
	}
}
