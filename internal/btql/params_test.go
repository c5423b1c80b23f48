package btql

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"testing"

	"btrace/internal/tracer"
)

// The field parameters of /store/query and /live (ParseParams) against
// the filter evaluator the live tail had before they were lowered to a
// Predicate.

// refMatcher is that evaluator, kept as what the lowering is pinned to:
// inclusive stamp and time bounds (an upper bound of 0 unbounded),
// 256-bit sets for the two uint8 lists (an empty list is the full set)
// and a sorted TID list.
type refMatcher struct {
	minStamp, maxStamp uint64
	minTS, maxTS       uint64
	cores, cats        [4]uint64
	tids               []uint32 // sorted; empty = all
}

func newRefMatcher(minStamp, maxStamp, minTS, maxTS uint64, cores, cats []uint8, tids []uint32) refMatcher {
	bitset := func(xs []uint8) (set [4]uint64) {
		if len(xs) == 0 {
			return [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
		for _, x := range xs {
			set[x>>6] |= 1 << (x & 63)
		}
		return set
	}
	m := refMatcher{minStamp: minStamp, maxStamp: maxStamp, minTS: minTS, maxTS: maxTS,
		cores: bitset(cores), cats: bitset(cats), tids: slices.Clone(tids)}
	if m.maxStamp == 0 {
		m.maxStamp = ^uint64(0)
	}
	if m.maxTS == 0 {
		m.maxTS = ^uint64(0)
	}
	slices.Sort(m.tids)
	return m
}

func (m *refMatcher) entry(e *tracer.Entry) bool {
	if e.Stamp < m.minStamp || e.Stamp > m.maxStamp || e.TS < m.minTS || e.TS > m.maxTS ||
		m.cores[e.Core>>6]>>(e.Core&63)&1 == 0 ||
		m.cats[e.Category>>6]>>(e.Category&63)&1 == 0 {
		return false
	}
	if len(m.tids) == 0 {
		return true
	}
	_, ok := slices.BinarySearch(m.tids, e.TID)
	return ok
}

// paramsPred is the predicate ParseParams lowers raw to.
func paramsPred(t *testing.T, raw string) *Predicate {
	t.Helper()
	v, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseParams(v)
	if err != nil {
		t.Fatalf("ParseParams(%q): %v", raw, err)
	}
	return q.Predicate()
}

// TestParamsMatch: each field parameter on one event, at the edges of
// the uint8 sets and with long unsorted TID lists, alone and ANDed with
// a q that passes the event, one that vetoes it and one that reads its
// payload.
func TestParamsMatch(t *testing.T) {
	e := tracer.Entry{Stamp: 5, TS: 100, Core: 2, TID: 42, Category: 3, Level: 1, Payload: []byte("gc pause")}
	edge := tracer.Entry{Core: 255, Category: 0}
	for _, c := range []struct {
		name, raw string
		e         *tracer.Entry
		want      bool
	}{
		{"empty matches", "", &e, true},
		{"ts window in", "min_ts=100&max_ts=100", &e, true},
		{"ts below", "min_ts=101", &e, false},
		{"ts above", "max_ts=99", &e, false},
		{"stamp window in", "min_stamp=5&max_stamp=5", &e, true},
		{"stamp above", "max_stamp=4", &e, false},
		{"core in", "cores=1,2", &e, true},
		{"core out", "cores=1", &e, false},
		{"category in", "categories=3", &e, true},
		{"category out", "categories=4", &e, false},
		{"tid in", "tids=41,42", &e, true},
		{"tid out", "tids=41", &e, false},
		// The compiled list is sorted and binary-searched; the request's
		// order and duplicates must not matter.
		{"tid in long unsorted list", "tids=900,7,42,13,800,1,42,55,3,99,12", &e, true},
		{"tid out of long list", "tids=900,7,43,13,800,1,41,55,3,99,12", &e, false},
		{"core set spans all four words", "cores=0,64,128,255,2", &e, true},
		{"category 255 only", "categories=255", &e, false},
		{"every list at once", "min_ts=1&max_ts=100&cores=2&categories=3&tids=42", &e, true},
		{"core 255 and category 0", "cores=255&categories=0", &edge, true},
		{"core 255 out", "cores=254&categories=0", &edge, false},
	} {
		for _, q := range []struct {
			src  string
			pass bool // q alone matches e
		}{
			{"", true},
			{"level == 1", c.e.Level == 1},
			{"level == 2", false},
			{`payload contains "pause"`, len(c.e.Payload) > 0},
		} {
			raw := c.raw
			if q.src != "" {
				raw = strings.TrimPrefix(raw+"&q="+url.QueryEscape(q.src), "&")
			}
			if got, want := paramsPred(t, raw).Match(c.e), c.want && q.pass; got != want {
				t.Errorf("%s, q %q: Match = %v, want %v", c.name, q.src, got, want)
			}
		}
	}
}

// TestParamsLoweringMatchesMatcher: random field-parameter combinations,
// with and without a q, against random runs of entries. The lowered
// predicate's Match is the old matcher's verdict ANDed with q's, event
// for event, and so is its MatchHeader where nothing reads the payload
// (where q does, MatchHeader may only say more); its MatchMeta — what
// the same parameters cost a /store/query — never prunes a run that
// holds a match, with and without the TID range and bloom a cold
// block's header carries.
func TestParamsLoweringMatchesMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Byte-wide values sit on and around the presence bitmaps' bit 63.
	u8 := func() uint8 { return []uint8{0, 1, 2, 63, 64, 128, 200, 255}[rng.Intn(8)] }
	list := func(n int, elem func() uint64) (vals []uint64, param string) {
		parts := make([]string, n)
		for i := range parts {
			vals = append(vals, elem())
			parts[i] = fmt.Sprint(vals[i])
		}
		return vals, strings.Join(parts, ",")
	}
	u8s := func(name string, v url.Values) []uint8 {
		vals, param := list(rng.Intn(5), func() uint64 { return uint64(u8()) })
		v.Set(name, param)
		out := make([]uint8, len(vals))
		for i, x := range vals {
			out[i] = uint8(x)
		}
		return out
	}
	tid := func() uint32 { return uint32(rng.Intn(60)) << uint(rng.Intn(3)*8) }
	payloads := []string{"", "ab", "xaby", "b"}
	qs := []string{"", "level >= 2", "core == 255 || tid < 300", `payload contains "ab"`, `!(category in (0, 64)) && payload prefix "x"`}
	for round := 0; round < 2000; round++ {
		v := url.Values{}
		var minStamp, maxStamp, minTS, maxTS uint64
		var cores, cats []uint8
		var tids []uint32
		if rng.Intn(4) == 0 {
			minStamp = uint64(rng.Intn(12))
			v.Set("min_stamp", fmt.Sprint(minStamp))
		}
		if rng.Intn(4) == 0 {
			maxStamp = minStamp + uint64(rng.Intn(12))
			v.Set("max_stamp", fmt.Sprint(maxStamp))
		}
		if rng.Intn(2) == 0 {
			minTS = uint64(rng.Intn(1200))
			v.Set("min_ts", fmt.Sprint(minTS))
		}
		if rng.Intn(2) == 0 {
			maxTS = minTS + uint64(rng.Intn(600))
			v.Set("max_ts", fmt.Sprint(maxTS))
		}
		if rng.Intn(2) == 0 {
			cores = u8s("cores", v)
		}
		if rng.Intn(2) == 0 {
			cats = u8s("categories", v)
		}
		if rng.Intn(2) == 0 {
			vals, param := list(rng.Intn(40), func() uint64 { return uint64(tid()) })
			for _, x := range vals {
				tids = append(tids, uint32(x))
			}
			v.Set("tids", param)
		}
		src := qs[rng.Intn(len(qs))]
		var qp *Predicate
		if src != "" {
			v.Set("q", src)
			qp = mustParse(t, src).Predicate()
		}
		ref, p := newRefMatcher(minStamp, maxStamp, minTS, maxTS, cores, cats, tids), paramsPred(t, v.Encode())

		es := make([]tracer.Entry, 1+rng.Intn(24))
		sum := Meta{MinStamp: 1, MaxStamp: uint64(len(es)), MinTS: ^uint64(0), HasTID: round%2 == 0, MinTID: ^uint32(0)}
		blooms := tidSet{}
		held := false
		for i := range es {
			e := &es[i]
			*e = tracer.Entry{
				Stamp: uint64(i + 1), TS: uint64(rng.Intn(1500)), Core: u8(), Category: u8(),
				TID: tid(), Level: uint8(rng.Intn(4)), Payload: []byte(payloads[rng.Intn(len(payloads))]),
			}
			sum.MinTS, sum.MaxTS = min(sum.MinTS, e.TS), max(sum.MaxTS, e.TS)
			sum.MinTID, sum.MaxTID = min(sum.MinTID, e.TID), max(sum.MaxTID, e.TID)
			sum.CoreBits |= 1 << min(e.Core, 63)
			sum.CatBits |= 1 << min(e.Category, 63)
			blooms[e.TID] = true
			want := ref.entry(e) && (qp == nil || qp.Match(e))
			held = held || want
			if got := p.Match(e); got != want {
				t.Fatalf("round %d: %s on %+v: Match = %v, the matcher says %v (lowered to %v)", round, v.Encode(), *e, got, want, p.Expr())
			}
			got := p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level)
			if got != want && (!p.NeedsPayload() || !got) {
				t.Fatalf("round %d: %s on %+v: MatchHeader = %v, the matcher says %v", round, v.Encode(), *e, got, want)
			}
		}
		if round%4 == 0 {
			sum.TIDs = blooms
		}
		if held && !p.MatchMeta(&sum) {
			t.Fatalf("round %d: %s (lowered to %v) prunes a run holding a match: %+v", round, v.Encode(), p.Expr(), sum)
		}
	}
}
