package btql

import (
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"btrace/internal/tracer"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"category == 2", "(category == 2)"},
		{"{ category == 2 }", "(category == 2)"},
		{"core != 0 && tid >= 100", "((core != 0) && (tid >= 100))"},
		{"stamp < 10 || stamp > 20", "((stamp < 10) || (stamp > 20))"},
		{"!(level == 3)", "!(level == 3)"},
		{`payload contains "oom"`, `(payload contains "oom")`},
		{`payload prefix "GC"`, `(payload prefix "GC")`},
		{"time >= 5ms && time < 1s", "((time >= 5000000) && (time < 1000000000))"},
		{"tid in (7)", "(tid in (7))"},
		{"core in (0,1 , 255) && !(tid in (3, 3, 1))", "((core in (0, 1, 255)) && !(tid in (3, 3, 1)))"},
		{"time in (5ms, 1s)", "(time in (5000000, 1000000000))"},
		{"tid in ()", "(tid in ())"},
		{"a_core_like_field == 1", ""}, // unknown field
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if c.want == "" {
			if err == nil {
				t.Errorf("Parse(%q): expected error", c.src)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := q.Filter.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// && binds tighter than ||.
	q := mustParse(t, "core == 1 || core == 2 && category == 3")
	want := "((core == 1) || ((core == 2) && (category == 3)))"
	if got := q.Filter.String(); got != want {
		t.Fatalf("precedence: got %s want %s", got, want)
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, "category == 1 | count()")
	if q.Agg == nil || q.Agg.Kind != AggCount {
		t.Fatalf("count: %+v", q.Agg)
	}
	q = mustParse(t, "| rate(10ms)")
	if q.Filter != nil || q.Agg.Kind != AggRate || q.Agg.WindowNs != 10_000_000 {
		t.Fatalf("rate: %+v", q.Agg)
	}
	q = mustParse(t, "tid > 0 | topk(5, tid)")
	if q.Agg.Kind != AggTopK || q.Agg.K != 5 || q.Agg.Field != FTID {
		t.Fatalf("topk: %+v", q.Agg)
	}
	for _, bad := range []string{
		"| topk(0, tid)", "| topk(5, payload)", "| topk(5, stamp)",
		"| rate(0)", "| median()", "| count() extra", "count()",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"category = 2", "category &", "(core == 1", "{core == 1",
		`payload contains oom`, `payload == "x"`, "core == ", "core == 99999999999999999999999",
		"!!", "core == 5msx", `payload contains "unterminated`,
		"tid in", "tid in 1", "tid in (1", "tid in (1 2)", "tid in (1,)", "tid in (,1)",
		`tid in ("x")`, "payload in (1)", "in (1)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
	// An in list is capped, and the error says at what.
	list := func(n int) string { return "tid in (" + strings.TrimSuffix(strings.Repeat("9,", n), ",") + ")" }
	if _, err := Parse(list(MaxInList)); err != nil {
		t.Errorf("a %d-value in list: %v", MaxInList, err)
	}
	if _, err := Parse(list(MaxInList + 1)); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxInList)) {
		t.Errorf("a %d-value in list: error %v, want one naming the cap %d", MaxInList+1, err, MaxInList)
	}
}

func TestMatchEntry(t *testing.T) {
	e := tracer.Entry{Stamp: 100, TS: 5000, Core: 2, TID: 4096, Category: 3, Level: 1,
		Payload: []byte("GC pause 12ms")}
	cases := []struct {
		src  string
		want bool
	}{
		{"", true},
		{"stamp == 100", true},
		{"stamp != 100", false},
		{"time >= 5us", true},
		{"core == 2 && tid == 4096", true},
		{"core == 2 && tid == 4097", false},
		{"core == 1 || category == 3", true},
		{"!(category == 3)", false},
		{`payload prefix "GC"`, true},
		{`payload prefix "pause"`, false},
		{`payload contains "pause"`, true},
		{`payload contains "oom"`, false},
		{"level <= 1 && payload contains \"12ms\"", true},
		{"tid in (1, 4096, 9)", true},
		{"tid in (1, 4095, 4097)", false},
		{"tid in ()", false},
		{"!(tid in ())", true},
		{"core in (2) && category in (0, 3, 255) && level in (1)", true},
		{"core in (3, 258)", false}, // 258 is not core 2
		{"stamp in (100, 18446744073709551615) && time in (5us)", true},
		{`tid in (4096) && payload contains "oom" || category in (3)`, true},
	}
	for _, c := range cases {
		p := mustParse(t, c.src).Predicate()
		if got := p.Match(&e); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.src, got, c.want)
		}
		// MatchHeader must never contradict an exact match (it may only be
		// more permissive on payload predicates).
		if !p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level) && c.want {
			t.Errorf("MatchHeader(%q) pruned a matching event", c.src)
		}
	}
}

// TestBoundsAndMasks: the stamp hull a predicate reports (the store's
// sparse seek and ordered cut read it), and what used to be exported
// beside it as core/category masks — the presence-bitmap pruning
// MatchMeta now does with them itself.
func TestBoundsAndMasks(t *testing.T) {
	bounds := []struct {
		src    string
		lo, hi uint64
	}{
		{"stamp >= 100 && stamp < 200 && category == 2", 100, 199},
		// Or widens; a branch without the field unconstrains the hull.
		{"stamp >= 100 || category == 2", 0, ^uint64(0)},
		{"stamp >= 100 && stamp <= 300 || stamp == 500", 100, 500},
		{"stamp in (40, 7, 19) && stamp > 5", 7, 40},
		{"stamp in ()", 0, ^uint64(0)},
		{"!(stamp < 100)", 0, ^uint64(0)}, // negations are not looked into
		{"stamp != 5", 0, ^uint64(0)},
		{"stamp > 10 && stamp < 5", 11, 11}, // contradictory: an empty probe point
		{"time >= 100", 0, ^uint64(0)},      // another field's range
	}
	for _, c := range bounds {
		if lo, hi := mustParse(t, c.src).Predicate().StampBounds(); lo != c.lo || hi != c.hi {
			t.Errorf("StampBounds(%q) = [%d,%d], want [%d,%d]", c.src, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := Compile(Between(FStamp, 7, 0)).StampBounds(); lo != 7 || hi != ^uint64(0) {
		t.Errorf("Between(stamp, 7, 0) bounds [%d,%d]", lo, hi)
	}

	masks := []struct {
		src       string
		core, cat uint64 // presence bitmaps of the run
		want      bool
	}{
		{"category == 2", 1, 1 << 2, true},
		{"category == 2", 1, 1<<1 | 1<<3, false},
		{"core == 1 || core == 3", 1<<1 | 1<<5, 1, true},
		{"core == 1 || core == 3", 1<<2 | 1<<5, 1, false},
		{"core in (1, 3)", 1<<2 | 1<<5, 1, false},
		{"core in (1, 3)", 1 << 3, 1, true},
		// Values >= 63 collapse onto bit 63.
		{"core == 200", 1 << 63, 1, true},
		{"core == 200", 1 << 62, 1, false},
		{"core in (5, 200)", 1 << 63, 1, true},
		{"core in (5, 62)", 1 << 63, 1, false},
		{"!(core in (5, 62))", 1 << 63, 1, true},
		{"!(core >= 63)", 1 << 63, 1, false}, // every value under the bit passes
		{"!(core >= 64)", 1 << 63, 1, true},  // 63 itself does not
		{"category != 2", 1, 1 << 2, false},
		{"category in (2, 3) && core in (0)", 1, 1 << 3, true},
		{"category in (2, 3) && core in (1)", 1, 1 << 3, false},
		{"core == 7", 0, 1, true}, // no summary: never prune on it
	}
	for _, c := range masks {
		m := Meta{MinStamp: 1, MaxStamp: 2, MinTS: 1, MaxTS: 2, CoreBits: c.core, CatBits: c.cat}
		if got := mustParse(t, c.src).Predicate().MatchMeta(&m); got != c.want {
			t.Errorf("MatchMeta(%q) over cores %#x cats %#x = %v, want %v", c.src, c.core, c.cat, got, c.want)
		}
	}
	if mustParse(t, "category in (1) && tid in (2)").Predicate().NeedsPayload() ||
		!mustParse(t, `tid in (2) && !(payload contains "x")`).Predicate().NeedsPayload() {
		t.Fatal("NeedsPayload must be set by payload matches and by nothing else")
	}
}

// tidSet is an exact stand-in for a block's TID bloom.
type tidSet map[uint32]bool

func (s tidSet) MayContainTID(tid uint32) bool { return s[tid] }

func TestMatchMeta(t *testing.T) {
	m := Meta{
		MinStamp: 100, MaxStamp: 200,
		MinTS: 1000, MaxTS: 2000,
		CoreBits: 1<<0 | 1<<1,
		CatBits:  1 << 2,
		HasTID:   true, MinTID: 50, MaxTID: 90,
		TIDs: tidSet{60: true},
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"stamp >= 150", true},
		{"stamp > 200", false},
		{"stamp < 100", false},
		{"time == 1500", true},
		{"time > 2000", false},
		{"core == 1", true},
		{"core == 5", false},
		{"core < 2", true},
		{"category == 2", true},
		{"category == 3", false},
		{"tid == 60", true},
		{"tid == 70", false}, // in range but bloom says no
		{"tid == 10", false}, // out of range
		{"tid >= 50", true},
		{"level == 7", true},                   // no level summary: maybe
		{`payload contains "x"`, true},         // maybe
		{"!(stamp >= 100)", false},             // whole block satisfies stamp>=100
		{"!(stamp >= 150)", true},              // some events may be below 150
		{"stamp > 200 || category == 2", true}, // one branch maybe
		{"stamp > 200 && level == 7", false},   // one branch provably empty
		{"tid != 70", true},                    // the bloom proves it of every event
		{"!(tid != 70)", false},
		{"tid in (60)", true},
		{"tid in (10, 60, 95)", true},
		{"tid in (10, 70, 95)", false}, // each member vetoed: range, bloom, range
		{"tid in (70, 80)", false},     // in range, both bloomed out
		{"!(tid in (70, 80))", true},   // a proven miss negates to a proven match
		{"stamp in (99, 201)", false},  // both outside the hull
		{"stamp in (99, 150)", true},   //
		{"time in (1500) || tid in ()", true},
		{"tid in ()", false},
		{"level in (9)", true}, // no level summary: maybe
	}
	for _, c := range cases {
		p := mustParse(t, c.src).Predicate()
		if got := p.MatchMeta(&m); got != c.want {
			t.Errorf("MatchMeta(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	// Bit 63 covers all values >= 63.
	m2 := Meta{MinStamp: 1, MaxStamp: 2, MinTS: 1, MaxTS: 2, CoreBits: 1 << 63, CatBits: 1}
	if !Compile(mustParse(t, "core == 100").Filter).MatchMeta(&m2) {
		t.Fatal("clamped core bit must stay a maybe for values >= 63")
	}
	if Compile(mustParse(t, "core == 10").Filter).MatchMeta(&m2) {
		t.Fatal("core 10 cannot hide under bit 63")
	}
	// A run of one value is decided outright, so its negation prunes.
	one := Meta{MinStamp: 5, MaxStamp: 5, MinTS: 1, MaxTS: 2, HasTID: true, MinTID: 9, MaxTID: 9}
	for src, want := range map[string]bool{
		"!(stamp in (4, 5))": false, "!(tid in (9))": false, "!(tid in (8))": true, "!(stamp == 5)": false,
	} {
		if got := mustParse(t, src).Predicate().MatchMeta(&one); got != want {
			t.Errorf("MatchMeta(%q) over a single-valued run = %v, want %v", src, got, want)
		}
	}
	// Without a TID summary a row-tier segment is never pruned on TIDs.
	if !mustParse(t, "tid in (1, 2)").Predicate().MatchMeta(&m2) {
		t.Fatal("tid list pruned a run that has no TID summary")
	}
}

// TestMetaNeverPrunesMatches is the soundness property the pushdown relies
// on: if any event in a summarized population matches, MatchMeta must not
// return false for that population's summary.
func TestMetaNeverPrunesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	queries := []string{
		"stamp >= 500 && stamp < 600",
		"category == 2 && time > 100000",
		"core == 1 || core == 7",
		"tid == 12345",
		"!(category == 0) && level >= 2",
		"stamp < 100 || (tid > 1000 && core != 0)",
		`payload contains "z" && category == 1`,
		"tid in (12345, 7, 19999, 3000)",
		"core in (0, 63, 64, 79) && !(category in (1, 2))",
		"stamp in (10, 500, 999) || time in (100000)",
		"!(tid in (5, 6) || level in (0, 1))",
	}
	for _, src := range queries {
		p := mustParse(t, src).Predicate()
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(32)
			ents := make([]tracer.Entry, n)
			m := Meta{MinStamp: ^uint64(0), MinTS: ^uint64(0), HasTID: true, MinTID: ^uint32(0)}
			tids := tidSet{}
			for i := range ents {
				e := &ents[i]
				e.Stamp = uint64(rng.Intn(1000))
				e.TS = uint64(rng.Intn(200000))
				e.Core = uint8(rng.Intn(80))
				e.TID = uint32(rng.Intn(20000))
				e.Category = uint8(rng.Intn(4))
				e.Level = uint8(rng.Intn(4))
				e.Payload = []byte("az")[:rng.Intn(3)]
				m.MinStamp = min(m.MinStamp, e.Stamp)
				m.MaxStamp = max(m.MaxStamp, e.Stamp)
				m.MinTS = min(m.MinTS, e.TS)
				m.MaxTS = max(m.MaxTS, e.TS)
				cb := e.Core
				if cb > 63 {
					cb = 63
				}
				m.CoreBits |= 1 << cb
				m.CatBits |= 1 << e.Category
				if e.TID < m.MinTID {
					m.MinTID = e.TID
				}
				if e.TID > m.MaxTID {
					m.MaxTID = e.TID
				}
				tids[e.TID] = true
			}
			m.TIDs = tids
			anyMatch := false
			for i := range ents {
				if got, want := p.Match(&ents[i]), refMatch(p.expr, &ents[i]); got != want {
					t.Fatalf("%q: Match(%+v) = %v, the AST says %v", src, ents[i], got, want)
				}
				if p.Match(&ents[i]) {
					anyMatch = true
					e := &ents[i]
					if !p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level) {
						t.Fatalf("%q: MatchHeader pruned matching entry %+v", src, e)
					}
				}
			}
			if anyMatch && !p.MatchMeta(&m) {
				t.Fatalf("%q: MatchMeta pruned a population with matches", src)
			}
		}
	}
}

func TestAggregators(t *testing.T) {
	spec := &AggSpec{Kind: AggCount}
	a := spec.New()
	for i := 0; i < 10; i++ {
		a.Observe(uint64(i), uint64(i*100), 0, 1, 2, 0)
	}
	r := a.Result()
	if r.Kind != "count" || r.Events != 10 || r.MinTS != 0 || r.MaxTS != 900 {
		t.Fatalf("count result %+v", r)
	}

	spec = &AggSpec{Kind: AggRate, WindowNs: 100}
	a = spec.New()
	b := spec.New()
	for i := 0; i < 10; i++ {
		a.Observe(uint64(i), uint64(i*30), 0, 1, 2, 0)
	}
	for i := 10; i < 20; i++ {
		b.Observe(uint64(i), uint64(i*30), 0, 1, 2, 0)
	}
	a.Merge(b)
	r = a.Result()
	if r.Events != 20 || len(r.Buckets) == 0 {
		t.Fatalf("rate result %+v", r)
	}
	var total uint64
	for i, bk := range r.Buckets {
		total += bk.Count
		if i > 0 && bk.StartNs <= r.Buckets[i-1].StartNs {
			t.Fatalf("buckets unsorted: %+v", r.Buckets)
		}
		if bk.StartNs%100 != 0 {
			t.Fatalf("bucket start %d not window-aligned", bk.StartNs)
		}
	}
	if total != 20 {
		t.Fatalf("bucket counts sum to %d, want 20", total)
	}

	spec = &AggSpec{Kind: AggTopK, K: 2, Field: FCategory}
	a = spec.New()
	for i := 0; i < 30; i++ {
		a.Observe(uint64(i), 0, 0, 1, uint8(i%3), 0) // cats 0,1,2 equally
	}
	a.Observe(30, 0, 0, 1, 1, 0) // tip category 1 ahead
	r = a.Result()
	if len(r.Top) != 2 || r.Top[0].Value != 1 || r.Top[0].Count != 11 {
		t.Fatalf("topk result %+v", r)
	}
	if r.Field != "category" {
		t.Fatalf("topk field %q", r.Field)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"category == 2 && time >= 5ms",
		`(core == 1 || !(tid > 10)) && payload contains "x"`,
		"stamp >= 1 | count()",
		"| rate(10ms)",
		"level < 3 | topk(4, core)",
		"tid in (3, 1, 3) && !(core in ()) | count()",
	} {
		q := mustParse(t, src)
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", q.String(), src, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip changed AST: %q vs %q", q, q2)
		}
	}
}

// TestConstructors: Between, In and AllOf own the request shapes'
// conventions — a zero bound is no bound, an empty list no restriction,
// nil the filter that matches everything — and In copies its argument.
func TestConstructors(t *testing.T) {
	str := func(e Expr) string {
		if e == nil {
			return "<nil>"
		}
		return e.String()
	}
	tids := []uint32{9, 3, 7}
	in := In(FTID, tids)
	cases := []struct {
		got  Expr
		want string
	}{
		{Between(FStamp, 0, 0), "<nil>"},
		{Between(FStamp, 5, 0), "(stamp >= 5)"},
		{Between(FTime, 0, 9), "(time <= 9)"},
		{Between(FTime, 5, 9), "((time >= 5) && (time <= 9))"},
		{In(FCore, []uint8(nil)), "<nil>"},
		{In(FCore, []uint8{}), "<nil>"},
		{In(FCore, []uint8{255, 0}), "(core in (255, 0))"},
		{in, "(tid in (9, 3, 7))"},
		{AllOf(), "<nil>"},
		{AllOf(nil, nil), "<nil>"},
		{AllOf(nil, in, nil), "(tid in (9, 3, 7))"},
		{AllOf(Between(FStamp, 1, 0), nil, in, &Not{in}), "(((stamp >= 1) && (tid in (9, 3, 7))) && !(tid in (9, 3, 7)))"},
	}
	for _, c := range cases {
		if got := str(c.got); got != c.want {
			t.Errorf("built %s, want %s", got, c.want)
		}
		if c.got != nil {
			if q, err := Parse(c.got.String()); err != nil || !reflect.DeepEqual(q.Filter, c.got) {
				t.Errorf("%s does not parse back to itself: %v, %v", c.got, q, err)
			}
		}
	}
	tids[0] = 1
	if in.String() != "(tid in (9, 3, 7))" {
		t.Errorf("In aliases its argument: %s", in)
	}
	// Compiling sorts a copy, never the expression's own list.
	Compile(in)
	if in.String() != "(tid in (9, 3, 7))" {
		t.Errorf("Compile reordered the expression: %s", in)
	}

	// Narrow: fields go in front, a nil receiver is the match-all
	// predicate, and a predicate nothing is added to is used as it is.
	p := mustParse(t, "core == 1").Predicate()
	if p.Narrow() != p || p.Narrow(nil, Between(FStamp, 0, 0)) != p {
		t.Error("Narrow recompiled a predicate it added nothing to")
	}
	if got := str(p.Narrow(in).Expr()); got != "((tid in (9, 3, 7)) && (core == 1))" {
		t.Errorf("Narrow built %s", got)
	}
	var none *Predicate
	if none.Expr() != nil || none.Narrow().Expr() != nil || !none.Narrow().Match(&tracer.Entry{}) {
		t.Error("a nil predicate must narrow to match-all")
	}
	if got := str(none.Narrow(in).Expr()); got != in.String() {
		t.Errorf("nil.Narrow built %s", got)
	}
}

// TestParseParams: the field parameters are a second spelling of BTQL.
// (The accept/reject cases are /live's former TestParseQuery's.)
func TestParseParams(t *testing.T) {
	parse := func(raw string) (*Query, error) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return ParseParams(v)
	}
	for raw, want := range map[string]string{
		"": "",
		"min_ts=10&max_ts=20&cores=0,1&categories=2,+3&tids=7,8,9": "(((((time >= 10) && (time <= 20)) && (core in (0, 1))) && (category in (2, 3))) && (tid in (7, 8, 9)))",
		"min_stamp=5":             "(stamp >= 5)",
		"max_stamp=9&min_stamp=0": "(stamp <= 9)",
		"max_stamp=0&max_ts=0":    "",
		"q=core+%3D%3D+1":         "(core == 1)",
		"q=core+%3D%3D+1+%7C+count()&tids=4&min_stamp=2": "(((stamp >= 2) && (tid in (4))) && (core == 1)) | count()",
		"q=%7C+rate(1ms)&cores=3":                        "(core in (3)) | rate(1000000ns)",
		"limit=5&workers=2&format=csv":                   "", // not filter parameters
	} {
		q, err := parse(raw)
		if err != nil {
			t.Errorf("ParseParams(%q): %v", raw, err)
			continue
		}
		if got := q.String(); got != want {
			t.Errorf("ParseParams(%q) = %s, want %s", raw, got, want)
		}
	}
	for _, bad := range []string{
		"min_ts=banana",
		"max_ts=-1",
		"cores=256",
		"categories=1,,2",
		"tids=4294967296",
		"min_ts=5&max_ts=4",
		"min_stamp=5&max_stamp=4",
		"q=core+%3D+1",
		"q=tid+in+(1",
		"tids=" + strings.Repeat("1,", MaxInList) + "1",
		"cores=" + strings.Repeat(",", 1<<16),
	} {
		if _, err := parse(bad); err == nil {
			t.Errorf("ParseParams(%q) accepted bad input", bad)
		}
	}
	if q, err := parse("tids=" + strings.TrimSuffix(strings.Repeat("1,", MaxInList), ",")); err != nil || len(q.Filter.(*InList).Vals) != MaxInList {
		t.Errorf("a %d-element list: %v", MaxInList, err)
	}
}

// TestResidual: the stamp and time comparisons of the top-level && chain
// are taken out of the text when the summary's hulls imply them and
// reported when a hull straddles one; everything else is the text,
// which reads back as the filter it is.
func TestResidual(t *testing.T) {
	// Stamps 100..200, times 5000..9000.
	m := &Meta{MinStamp: 100, MaxStamp: 200, MinTS: 5000, MaxTS: 9000}
	point := &Meta{MinStamp: 7, MaxStamp: 7, MinTS: 70, MaxTS: 70}
	cases := []struct {
		src  string
		m    *Meta
		rest string
		ok   bool
	}{
		{"", m, "", true},
		{"category == 2", m, "(category == 2)", true},
		// Implied: dropped.
		{"stamp >= 100", m, "", true},
		{"stamp >= 1 && stamp <= 200", m, "", true},
		{"stamp > 99 && stamp < 201", m, "", true},
		{"time >= 5000 && time <= 9000", m, "", true},
		{"time > 4999 && time < 9001 && category == 2", m, "(category == 2)", true},
		{"stamp == 7 && time == 70", point, "", true},
		{"stamp != 99", m, "", true},
		{`stamp >= 1 && category == 2 && time < 1s && payload contains "x" && stamp <= 500`, m, `((category == 2) && (payload contains "x"))`, true},
		{"category == 2 && (tid == 5 || core in (1, 2))", m, "((category == 2) && ((tid == 5) || (core in (1, 2))))", true},
		// Straddled: reported.
		{"stamp >= 101", m, "", false},
		{"stamp > 100", m, "", false},
		{"stamp <= 199", m, "", false},
		{"stamp < 200", m, "", false},
		{"stamp == 150", m, "", false},
		{"stamp != 150", m, "", false},
		{"time >= 5001 && category == 2", m, "", false},
		{"time < 9000", m, "", false},
		{"stamp >= 1 && time == 6000", m, "", false},
		// Ruled out (MatchMeta prunes such a summary): not implied either.
		{"stamp > 200", m, "", false},
		// A range that is not a conjunct of the chain stays in the text,
		// whatever the hulls say of it.
		{"stamp >= 150 || category == 2", m, "((stamp >= 150) || (category == 2))", true},
		{"!(stamp >= 150)", m, "!(stamp >= 150)", true},
		{"!(time < 1) && stamp <= 200", m, "!(time < 1)", true},
		{"stamp in (150, 160)", m, "(stamp in (150, 160))", true},
		{"category == 2 && (stamp >= 150 && tid == 5 || level == 1)", m, "((category == 2) && (((stamp >= 150) && (tid == 5)) || (level == 1)))", true},
		// Only the stamp and the time: a tid range is no hull of a segment's.
		{"tid >= 5 && stamp >= 1", m, "(tid >= 5)", true},
	}
	for _, tc := range cases {
		p := mustParse(t, tc.src).Predicate()
		rest, ok := p.Residual(tc.m)
		if ok != tc.ok || rest != tc.rest {
			t.Errorf("Residual(%q) = %q, %v; want %q, %v", tc.src, rest, ok, tc.rest, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		// The text is a filter: it reads back as itself, and has the same
		// residual.
		back := mustParse(t, rest)
		if got := (&Query{Filter: back.Filter}).String(); got != rest {
			t.Errorf("Parse(%q) reads back as %q", rest, got)
		}
		if r2, ok2 := back.Predicate().Residual(tc.m); r2 != rest || !ok2 {
			t.Errorf("the residual of %q has residual %q, %v", rest, r2, ok2)
		}
	}

	// The field form of a request (Between, as store.Query's and
	// live.Filter's bounds are lowered) is its BTQL spelling.
	var none *Predicate
	for _, tc := range []struct {
		p    *Predicate
		rest string
		ok   bool
	}{
		{none, "", true},
		{Compile(nil), "", true},
		{none.Narrow(Between(FStamp, 1, 200), Between(FTime, 0, 9000)), "", true},
		{none.Narrow(Between(FStamp, 150, 0)), "", false},
		{none.Narrow(Between(FTime, 0, 8999)), "", false},
		{mustParse(t, "category == 2").Predicate().Narrow(Between(FStamp, 100, 200), In(FCore, []uint8{1})),
			"((core in (1)) && (category == 2))", true},
	} {
		if rest, ok := tc.p.Residual(m); rest != tc.rest || ok != tc.ok {
			t.Errorf("Residual(%v) = %q, %v; want %q, %v", tc.p.Expr(), rest, ok, tc.rest, tc.ok)
		}
	}
}
