package btql

import (
	"slices"

	"btrace/internal/tracer"
)

// Meta summarizes a file or block for pruning. The store fills it from
// segment headers (row tier) or v2 block headers (cold tier); zero-valued
// optional parts mean "unknown" and never cause a false prune.
type Meta struct {
	MinStamp, MaxStamp uint64
	MinTS, MaxTS       uint64
	// CoreBits/CatBits are presence bitmaps: bit min(v,63) is set for every
	// value v present. Zero means unknown (no events summarized).
	CoreBits, CatBits uint64
	// TID summaries exist only for v2 cold blocks.
	HasTID         bool
	MinTID, MaxTID uint32
	// TIDs reports whether a TID may be present (a bloom filter probe:
	// false is a proof of absence). nil means no membership information
	// beyond the min/max range.
	TIDs interface{ MayContainTID(uint32) bool }
}

// hull returns the range of values the summary allows for wide field f;
// ok is false when it has none to prune on (no TID summary, or a
// malformed one).
func (m *Meta) hull(f Field) (lo, hi uint64, ok bool) {
	switch f {
	case FStamp:
		lo, hi = m.MinStamp, m.MaxStamp
	case FTime:
		lo, hi = m.MinTS, m.MaxTS
	default: // FTID
		if !m.HasTID {
			return 0, 0, false
		}
		lo, hi = uint64(m.MinTID), uint64(m.MaxTID)
	}
	return lo, hi, lo <= hi
}

// lacksTID is the bloom veto: TID v, a value inside the hull, is provably
// not among the summarized events.
func (m *Meta) lacksTID(f Field, v uint64) bool {
	return f == FTID && m.TIDs != nil && !m.TIDs.MayContainTID(uint32(v))
}

// Predicate is a compiled filter. It is immutable and safe for concurrent
// use by any number of cursors.
type Predicate struct {
	expr Expr    // nil matches everything
	kern *kernel // expr compiled; every fidelity evaluates this
	// conj is kern's top-level && chain, flattened: the per-event
	// fidelities are one loop over it that stops at the first miss.
	conj         []*kernel
	needsPayload bool
	// minStamp/maxStamp is the stamp hull; ^uint64(0) is unbounded above.
	minStamp, maxStamp uint64
	// The residual's two halves (Residual): the conjuncts that compare
	// the stamp or the time with a literal, and the canonical text of the
	// other conjuncts, "" when there are none.
	ranges []*kernel
	rest   string
}

// Compile lowers a filter expression to a Predicate. A nil expression
// compiles to the match-all predicate.
func Compile(e Expr) *Predicate {
	p := &Predicate{expr: e, maxStamp: ^uint64(0)}
	if e == nil {
		return p
	}
	p.kern = compileKernel(e)
	p.conj = p.kern.conjuncts(nil)
	p.needsPayload = p.kern.needsPayload()
	p.minStamp, p.maxStamp = p.kern.bounds(FStamp)
	var rest []Expr
	for i, c := range conjunctExprs(e, nil) { // p.conj's expressions, in its order
		if cmp, ok := c.(*Cmp); ok && (cmp.Field == FStamp || cmp.Field == FTime) {
			p.ranges = append(p.ranges, p.conj[i])
		} else {
			rest = append(rest, c)
		}
	}
	if r := AllOf(rest...); r != nil {
		p.rest = r.String()
	}
	return p
}

// conjunctExprs appends the operands of e's top-level && chain to dst:
// kernel.conjuncts over the expression.
func conjunctExprs(e Expr, dst []Expr) []Expr {
	if and, ok := e.(*And); ok {
		return conjunctExprs(and.R, conjunctExprs(and.L, dst))
	}
	return append(dst, e)
}

// Predicate compiles q's filter stage.
func (q *Query) Predicate() *Predicate { return Compile(q.Filter) }

// Expr returns the filter p was compiled from; nil, the match-all
// filter, for a nil p too.
func (p *Predicate) Expr() Expr {
	if p == nil {
		return nil
	}
	return p.expr
}

// Narrow returns the predicate of p's filter ANDed behind es: how a
// request's field form and its ?q= become the one predicate evaluated.
// p may be nil, and is returned as it is when es adds nothing.
func (p *Predicate) Narrow(es ...Expr) *Predicate {
	fields := AllOf(es...)
	if fields == nil && p != nil {
		return p
	}
	return Compile(AllOf(fields, p.Expr()))
}

// NeedsPayload reports whether exact evaluation requires the event payload.
func (p *Predicate) NeedsPayload() bool { return p.needsPayload }

// StampBounds returns the [lo, hi] hull the predicate allows for stamps
// (hi == ^uint64(0) means unbounded above).
func (p *Predicate) StampBounds() (lo, hi uint64) { return p.minStamp, p.maxStamp }

// Residual is what is left of p's filter over the events m summarises
// once the comparisons of the stamp and of the time in its top-level &&
// chain are taken out: the canonical text of the other conjuncts, which
// Parse reads back ("" when there are none, and for a nil p). ok says
// whether m's stamp and time hulls imply every comparison taken out, so
// that over those events the text alone selects what p does; it is
// false when a hull straddles one (some of the events may pass it, some
// not) or rules one out. A range inside an ||, a ! or an `in` list is
// not taken out: it stays in the text.
func (p *Predicate) Residual(m *Meta) (rest string, ok bool) {
	if p == nil {
		return "", true
	}
	for _, k := range p.ranges {
		if k.meta(m) != triYes {
			return "", false
		}
	}
	return p.rest, true
}

// Rest is Residual's text alone, whatever the hulls: the canonical text
// of the conjuncts of p's top-level && chain that do not compare the
// stamp or the time with a literal, which Parse reads back; "" when
// there are none, and for a nil p. Over any events, p selects what Rest
// selects less what those comparisons rule out. The store keys what it
// caches of a segment under a filter by it.
func (p *Predicate) Rest() string {
	if p == nil {
		return ""
	}
	return p.rest
}

// Match evaluates the predicate exactly against a full entry. (Split so
// that it inlines: match-all, what a live subscriber without a filter
// holds, then costs its caller a length check per event.)
func (p *Predicate) Match(e *tracer.Entry) bool { return len(p.conj) == 0 || p.matchEntry(e) }

// matchEntry is the header test and, for a predicate with payload
// matches, the exact walk behind it.
func (p *Predicate) matchEntry(e *tracer.Entry) bool {
	return p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level) && (!p.needsPayload ||
		p.kern.event(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level, e.Payload, true) == triYes)
}

// MatchHeader evaluates against header fields only. Payload predicates
// evaluate to "maybe" (true), so a false return is exact ("provably no")
// while true may still need a payload re-check when NeedsPayload.
//
// It is one flat loop over the conjuncts. It runs per row of a hot-tier
// scan and per admitted event per live subscriber, so a conjunct that
// is a leaf — what the field form of a request lowers to — is tested in
// line, on what the kernel precomputed, without a call; ||, ! and
// payload matches take the tri-state walk.
func (p *Predicate) MatchHeader(stamp, ts uint64, core uint8, tid uint32, cat, level uint8) bool {
	for _, k := range p.conj {
		x := headerField(k.field, stamp, ts, core, tid, cat, level)
		var ok bool
		switch k.op {
		case kRange:
			ok = (x-k.lo <= k.hi-k.lo) != k.neg
		case kSet:
			ok = k.set[uint8(x)]
		case kList:
			_, ok = slices.BinarySearch(k.vals, x)
		default:
			ok = k.event(stamp, ts, core, tid, cat, level, nil, false) != triNo
		}
		if !ok {
			return false
		}
	}
	return true
}

// headerField picks field f out of one event's header.
func headerField(f Field, stamp, ts uint64, core uint8, tid uint32, cat, level uint8) uint64 {
	switch f {
	case FStamp:
		return stamp
	case FTime:
		return ts
	case FCore:
		return uint64(core)
	case FTID:
		return uint64(tid)
	case FCategory:
		return uint64(cat)
	default:
		return uint64(level)
	}
}

// MatchMeta evaluates against a file/block summary. False means the
// summarized range provably contains no matching event and can be skipped.
// Like MatchHeader it stops at the first conjunct that says so: a
// window query meets most of a block directory only to veto it on the
// stamp hull.
func (p *Predicate) MatchMeta(m *Meta) bool {
	for _, k := range p.conj {
		if k.meta(m) == triNo {
			return false
		}
	}
	return true
}

// tri is a three-valued truth: triNo is a proof of non-match, triYes a
// proof of match, triMaybe neither. The distinction keeps Not sound: a
// negation only flips proofs, never guesses. The values are ordered so
// that && is the minimum, || the maximum and ! the reflection.
type tri uint8

const (
	triNo tri = iota
	triMaybe
	triYes
)

func triNot(t tri) tri { return triYes - t }

func triAnd(a, b tri) tri { return min(a, b) }

func triOr(a, b tri) tri { return max(a, b) }

func triBool(b bool) tri {
	if b {
		return triYes
	}
	return triNo
}

// kop is what a kernel node does.
type kop uint8

const (
	kAnd kop = iota
	kOr
	kNot
	kPayload // payload contains/prefix
	kRange   // Cmp over a wide field (stamp, time, tid)
	kSet     // Cmp or InList over a byte-wide field (core, category, level)
	kList    // InList over a wide field
)

// kernel is one node of a compiled predicate: the expression node with
// what evaluating it needs — per event, per column and per summary —
// worked out once per query.
type kernel struct {
	op    kop
	l, r  *kernel       // kAnd, kOr: both; kNot: l
	pm    *PayloadMatch // kPayload
	field Field         // leaves: the field tested
	// kRange is the test lo <= x <= hi, negated when neg is set (!=, and
	// the comparisons nothing satisfies: the negated full range).
	lo, hi uint64
	neg    bool
	// kSet is a truth table over the field's values. any and all are
	// the table as a summary's presence bitmap sees it (bit min(v,63)):
	// the bits some value of passes under, and those every value does.
	set      [256]bool
	any, all uint64
	// kList is membership in vals, sorted and without duplicates.
	vals []uint64
}

func compileKernel(e Expr) *kernel {
	switch e := e.(type) {
	case *And:
		return &kernel{op: kAnd, l: compileKernel(e.L), r: compileKernel(e.R)}
	case *Or:
		return &kernel{op: kOr, l: compileKernel(e.L), r: compileKernel(e.R)}
	case *Not:
		return &kernel{op: kNot, l: compileKernel(e.X)}
	case *PayloadMatch:
		return &kernel{op: kPayload, pm: e}
	case *Cmp:
		if byteWide(e.Field) {
			return setKernel(e.Field, func(v uint64) bool { return cmpU64(v, e.Op, e.Val) })
		}
		k := &kernel{op: kRange, field: e.Field}
		k.lo, k.hi, k.neg = cmpRange(e.Op, e.Val)
		return k
	case *InList:
		vals := slices.Clone(e.Vals)
		slices.Sort(vals)
		vals = slices.Compact(vals)
		if byteWide(e.Field) {
			return setKernel(e.Field, func(v uint64) bool { _, ok := slices.BinarySearch(vals, v); return ok })
		}
		return &kernel{op: kList, field: e.Field, vals: vals}
	}
	panic("btql: unknown expression node")
}

func byteWide(f Field) bool { return f == FCore || f == FCategory || f == FLevel }

func setKernel(f Field, in func(uint64) bool) *kernel {
	k := &kernel{op: kSet, field: f, all: ^uint64(0)}
	for v := range k.set {
		k.set[v] = in(uint64(v))
		if bit := uint64(1) << min(v, 63); k.set[v] {
			k.any |= bit
		} else {
			k.all &^= bit
		}
	}
	return k
}

func cmpU64(x uint64, op CmpOp, v uint64) bool {
	switch op {
	case OpEq:
		return x == v
	case OpNe:
		return x != v
	case OpLt:
		return x < v
	case OpLe:
		return x <= v
	case OpGt:
		return x > v
	default:
		return x >= v
	}
}

// cmpRange turns `x op v` into the range test lo <= x <= hi, negated
// when neg is set.
func cmpRange(op CmpOp, v uint64) (lo, hi uint64, neg bool) {
	const top = ^uint64(0)
	switch op {
	case OpEq:
		return v, v, false
	case OpNe:
		return v, v, true
	case OpLt:
		if v == 0 {
			return 0, top, true
		}
		return 0, v - 1, false
	case OpLe:
		return 0, v, false
	case OpGt:
		if v == top {
			return 0, top, true
		}
		return v + 1, top, false
	default: // OpGe
		return v, top, false
	}
}

// conjuncts appends the operands of k's top-level && chain to dst.
func (k *kernel) conjuncts(dst []*kernel) []*kernel {
	if k.op != kAnd {
		return append(dst, k)
	}
	return k.r.conjuncts(k.l.conjuncts(dst))
}

func (k *kernel) needsPayload() bool {
	return k != nil && (k.op == kPayload || k.l.needsPayload() || k.r.needsPayload())
}

// bounds returns the hull [lo, hi] of values wide field f can take under
// k. Unconstrained sides come back as 0 / ^uint64(0).
func (k *kernel) bounds(f Field) (lo, hi uint64) {
	switch {
	case k.op == kAnd:
		l1, h1 := k.l.bounds(f)
		l2, h2 := k.r.bounds(f)
		if lo, hi = max(l1, l2), min(h1, h2); lo > hi {
			return lo, lo // contradictory: collapse to an empty probe point
		}
		return lo, hi
	case k.op == kOr:
		l1, h1 := k.l.bounds(f)
		l2, h2 := k.r.bounds(f)
		return min(l1, l2), max(h1, h2)
	case k.op == kRange && k.field == f && !k.neg:
		return k.lo, k.hi
	case k.op == kList && k.field == f && len(k.vals) > 0:
		return k.vals[0], k.vals[len(k.vals)-1]
	default: // Not, negated ranges, other fields: conservative
		return 0, ^uint64(0)
	}
}

// event is the truth of k on one event. With exact unset the payload is
// not there to look at and a payload match is a maybe; with it set the
// result never is one.
func (k *kernel) event(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte, exact bool) tri {
	switch k.op {
	case kAnd:
		if l := k.l.event(stamp, ts, core, tid, cat, level, payload, exact); l != triNo {
			return triAnd(l, k.r.event(stamp, ts, core, tid, cat, level, payload, exact))
		}
		return triNo
	case kOr:
		if l := k.l.event(stamp, ts, core, tid, cat, level, payload, exact); l != triYes {
			return triOr(l, k.r.event(stamp, ts, core, tid, cat, level, payload, exact))
		}
		return triYes
	case kNot:
		return triNot(k.l.event(stamp, ts, core, tid, cat, level, payload, exact))
	case kPayload:
		if !exact {
			return triMaybe
		}
		return triBool(k.pm.match(payload))
	}
	return triBool(k.test(headerField(k.field, stamp, ts, core, tid, cat, level)))
}

// test is leaf k on one value of its field.
func (k *kernel) test(x uint64) bool {
	switch k.op {
	case kSet:
		return k.set[uint8(x)]
	case kList:
		_, ok := slices.BinarySearch(k.vals, x)
		return ok
	default: // kRange
		return (x-k.lo <= k.hi-k.lo) != k.neg
	}
}

// meta is the truth of k over every event a summary covers: triYes if
// all of them satisfy it, triNo if none can.
func (k *kernel) meta(m *Meta) tri {
	switch k.op {
	case kAnd:
		return triAnd(k.l.meta(m), k.r.meta(m))
	case kOr:
		return triOr(k.l.meta(m), k.r.meta(m))
	case kNot:
		return triNot(k.l.meta(m))
	case kSet:
		bits := m.CatBits
		if k.field == FCore {
			bits = m.CoreBits
		}
		switch {
		case bits == 0 || k.field == FLevel: // no summary kept
		case bits&k.any == 0:
			return triNo
		case bits&^k.all == 0:
			return triYes
		}
	case kRange:
		lo, hi, ok := m.hull(k.field)
		t := triMaybe
		switch {
		case !ok:
			return triMaybe
		case hi < k.lo || k.hi < lo:
			t = triNo
		case k.lo <= lo && hi <= k.hi:
			t = triYes
		case k.lo == k.hi && m.lacksTID(k.field, k.lo):
			// The bloom can veto equality probes the range alone can't.
			t = triNo
		}
		if k.neg {
			t = triNot(t)
		}
		return t
	case kList:
		// Member by member: the hull vetoes those outside it, the bloom
		// those inside.
		lo, hi, ok := m.hull(k.field)
		if !ok {
			return triMaybe
		}
		i, _ := slices.BinarySearch(k.vals, lo)
		for _, v := range k.vals[i:] {
			if v > hi {
				break
			}
			if m.lacksTID(k.field, v) {
				continue
			}
			if lo == hi {
				return triYes
			}
			return triMaybe
		}
		return triNo
	}
	return triMaybe // kPayload, and summaries that do not decide
}
