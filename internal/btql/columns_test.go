package btql

import (
	"math/rand"
	"reflect"
	"testing"

	"btrace/internal/tracer"
)

// sliceCols is a block of entries laid out by column, categories behind
// a dictionary, with a summary that either says nothing (every leaf runs
// its loop) or is exact (leaves the summary decides do not).
type sliceCols struct {
	n           int
	sum         Meta
	stamps, ts  []uint64
	tids        []uint32
	cores, lvls []uint8
	catIdx      []uint8
	dict        []uint8
}

func (c *sliceCols) Summary() *Meta   { return &c.sum }
func (c *sliceCols) Stamps() []uint64 { return c.stamps[:c.n] }
func (c *sliceCols) Times() []uint64  { return c.ts[:c.n] }
func (c *sliceCols) TIDs() []uint32   { return c.tids[:c.n] }
func (c *sliceCols) Bytes(f Field) (col, dict []uint8) {
	switch f {
	case FCore:
		return c.cores[:c.n], nil
	case FCategory:
		return c.catIdx[:c.n], c.dict
	default:
		return c.lvls[:c.n], nil
	}
}

func columnsOf(es []tracer.Entry, summarise bool) *sliceCols {
	c := &sliceCols{n: len(es), sum: Meta{MaxStamp: ^uint64(0), MaxTS: ^uint64(0)}}
	var idx [256]int
	for i := range es {
		e := &es[i]
		c.stamps, c.ts, c.tids = append(c.stamps, e.Stamp), append(c.ts, e.TS), append(c.tids, e.TID)
		c.cores, c.lvls = append(c.cores, e.Core), append(c.lvls, e.Level)
		if idx[e.Category] == 0 {
			c.dict = append(c.dict, e.Category)
			idx[e.Category] = len(c.dict)
		}
		c.catIdx = append(c.catIdx, uint8(idx[e.Category]-1))
		if !summarise {
			continue
		}
		if i == 0 {
			c.sum = Meta{MinStamp: e.Stamp, MaxStamp: e.Stamp, MinTS: e.TS, MaxTS: e.TS, HasTID: true, MinTID: e.TID, MaxTID: e.TID}
		}
		c.sum.MinStamp, c.sum.MaxStamp = min(c.sum.MinStamp, e.Stamp), max(c.sum.MaxStamp, e.Stamp)
		c.sum.MinTS, c.sum.MaxTS = min(c.sum.MinTS, e.TS), max(c.sum.MaxTS, e.TS)
		c.sum.MinTID, c.sum.MaxTID = min(c.sum.MinTID, e.TID), max(c.sum.MaxTID, e.TID)
		c.sum.CoreBits |= 1 << min(uint(e.Core), 63)
		c.sum.CatBits |= 1 << min(uint(e.Category), 63)
	}
	return c
}

// The reference the compiled kernels are held to: the expression tree
// walked node by node, one comparison at a time — the evaluators Match
// and MatchHeader used to be.

func refMatch(e Expr, ev *tracer.Entry) bool { return refEval(e, ev, true) == triYes }

// refEval is tri-state so that without the payload (exact unset) a
// payload match is a maybe and a negation leaves it one.
func refEval(e Expr, ev *tracer.Entry, exact bool) tri {
	switch e := e.(type) {
	case nil:
		return triYes
	case *And:
		return triAnd(refEval(e.L, ev, exact), refEval(e.R, ev, exact))
	case *Or:
		return triOr(refEval(e.L, ev, exact), refEval(e.R, ev, exact))
	case *Not:
		return triNot(refEval(e.X, ev, exact))
	case *Cmp:
		return triBool(cmpU64(refField(e.Field, ev), e.Op, e.Val))
	case *InList:
		for _, v := range e.Vals {
			if refField(e.Field, ev) == v {
				return triYes
			}
		}
		return triNo
	case *PayloadMatch:
		if !exact {
			return triMaybe
		}
		return triBool(e.match(ev.Payload))
	}
	panic("unknown node")
}

func refField(f Field, ev *tracer.Entry) uint64 {
	return [...]uint64{FStamp: ev.Stamp, FTime: ev.TS, FCore: uint64(ev.Core), FTID: uint64(ev.TID),
		FCategory: uint64(ev.Category), FLevel: uint64(ev.Level)}[f]
}

// TestSelectMatchesHeaderEvaluation: Select is header evaluation by
// column. Row for row, may is "not proven to miss", yes is "proven to
// match", and MatchRow settles the rest the way Match does — for blocks
// of every size around a word boundary, with and without a summary —
// and Match, MatchHeader and MatchRow are what walking the expression
// says.
func TestSelectMatchesHeaderEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var randExpr func(depth int) Expr
	randExpr = func(depth int) Expr {
		if depth > 0 && rng.Intn(3) > 0 {
			switch rng.Intn(3) {
			case 0:
				return &And{randExpr(depth - 1), randExpr(depth - 1)}
			case 1:
				return &Or{randExpr(depth - 1), randExpr(depth - 1)}
			default:
				return &Not{randExpr(depth - 1)}
			}
		}
		if rng.Intn(5) == 0 {
			return &PayloadMatch{Prefix: rng.Intn(2) == 0, Needle: "ab"}
		}
		vals := []uint64{0, 1, 2, 3, 4, 63, 64, 200, 255, 256, 35_000, 70_000, 1 << 40, 2 << 40, ^uint64(0)}
		if rng.Intn(3) == 0 {
			in := &InList{Field: Field(rng.Intn(6)), Vals: make([]uint64, rng.Intn(5))}
			for i := range in.Vals {
				in.Vals[i] = vals[rng.Intn(len(vals))]
			}
			return in
		}
		return &Cmp{Field: Field(rng.Intn(6)), Op: CmpOp(rng.Intn(6)), Val: vals[rng.Intn(len(vals))]}
	}
	for round := 0; round < 300; round++ {
		es := make([]tracer.Entry, []int{0, 1, 63, 64, 65, 130, 200}[rng.Intn(7)])
		for i := range es {
			es[i] = tracer.Entry{
				Stamp: uint64(rng.Intn(5)), TS: uint64(rng.Intn(4)) << 40, Core: uint8(rng.Intn(3) * 100),
				TID: uint32(rng.Intn(3) * 35_000), Category: uint8(rng.Intn(4) * 64), Level: uint8(rng.Intn(4)),
				Payload: []byte([]string{"", "ab", "cab", "b"}[rng.Intn(4)]),
			}
		}
		c := columnsOf(es, round%2 == 0)
		p := Compile(randExpr(3))
		var sel Selection
		sel.Reset(len(es))
		p.Select(c, &sel)
		var got, want []int32
		for _, i := range sel.Rows(nil) {
			if sel.Sure(i) || p.MatchRow(c, i, es[i].Payload) {
				got = append(got, i)
			}
		}
		rows := sel.Rows(nil)
		for i := range es {
			e := &es[i]
			h := refEval(p.expr, e, false)
			if p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level) != (h != triNo) {
				t.Fatalf("round %d, %v, %+v: MatchHeader disagrees with the expression (%d)", round, p.expr, e, h)
			}
			if got := p.MatchRow(c, int32(i), e.Payload); got != refMatch(p.expr, e) || got != p.Match(e) {
				t.Fatalf("round %d, %v, row %d (%+v): MatchRow %v, Match %v, the expression %v", round, p.expr, i, e, got, p.Match(e), refMatch(p.expr, e))
			}
			selected := len(rows) > 0 && rows[0] == int32(i)
			if selected {
				rows = rows[1:]
			}
			if selected != (h != triNo) || selected && sel.Sure(int32(i)) != (h == triYes) {
				t.Fatalf("round %d, %v, row %d of %d (%+v): header says %d, selected=%v", round, p.expr, i, len(es), e, h, selected)
			}
			if p.Match(e) {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d, %v: rows %v, want %v", round, p.expr, got, want)
		}
		if sel.Exact() && p.NeedsPayload() && len(got) != len(sel.Rows(nil)) {
			t.Fatalf("round %d, %v: an exact selection lost rows to MatchRow", round, p.expr)
		}
	}
}

// TestObserveColumnsMatchesObserve: the bulk form of every aggregate
// yields what row-at-a-time Observe does over the same rows.
func TestObserveColumnsMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	es := make([]tracer.Entry, 150)
	for i := range es {
		es[i] = tracer.Entry{
			Stamp: uint64(i), TS: uint64(rng.Intn(1000)) * 1e6, Core: uint8(rng.Intn(4)),
			TID: uint32(rng.Intn(5) * 30_000), Category: uint8(rng.Intn(4) * 70), Level: uint8(rng.Intn(3)),
		}
	}
	c := columnsOf(es, true)
	var idx []int32
	for i := range es {
		if rng.Intn(3) > 0 {
			idx = append(idx, int32(i))
		}
	}
	specs := []AggSpec{
		{Kind: AggCount}, {Kind: AggRate, WindowNs: 50e6},
		{Kind: AggTopK, K: 3, Field: FTID}, {Kind: AggTopK, K: 2, Field: FCategory},
		{Kind: AggTopK, K: 5, Field: FCore}, {Kind: AggTopK, K: 5, Field: FLevel},
	}
	for _, spec := range specs {
		bulk, rowwise := spec.New(), spec.New()
		bulk.ObserveColumns(c, idx[:40])
		bulk.ObserveColumns(c, idx[40:])
		for _, i := range idx {
			rowwise.ObserveEntry(&es[i])
		}
		if got, want := bulk.Result(), rowwise.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: bulk %+v, row-wise %+v", spec.String(), got, want)
		}
	}
}
