package btql

import "btrace/internal/tracer"

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
	// TIDMay reports whether a TID may be present (bloom filter probe).
	// nil means no membership information beyond the min/max range.
	TIDMay func(uint32) bool
}

// Predicate is a compiled filter. It is immutable and safe for concurrent
// use by any number of cursors.
type Predicate struct {
	expr         Expr    // nil matches everything
	kern         *kernel // expr compiled for column evaluation (columns.go)
	needsPayload bool

	// Extracted hulls and value masks, for folding into store.Query so the
	// existing segment/sparse-index pruning benefits from BTQL bounds even
	// before MatchMeta runs. Max bounds of ^uint64(0) mean unbounded.
	minStamp, maxStamp uint64
	minTS, maxTS       uint64
	coreMask, catMask  uint64 // bit min(v,63); ^uint64(0) = unconstrained
}

// Compile lowers a filter expression to a Predicate. A nil expression
// compiles to the match-all predicate.
func Compile(e Expr) *Predicate {
	p := &Predicate{
		expr:     e,
		maxStamp: ^uint64(0), maxTS: ^uint64(0),
		coreMask: ^uint64(0), catMask: ^uint64(0),
	}
	if e == nil {
		return p
	}
	p.kern = compileKernel(e)
	p.needsPayload = needsPayload(e)
	p.minStamp, p.maxStamp = boundsOf(e, FStamp)
	p.minTS, p.maxTS = boundsOf(e, FTime)
	if s := valueSet(e, FCore); s != nil {
		p.coreMask = maskOf(s)
	}
	if s := valueSet(e, FCategory); s != nil {
		p.catMask = maskOf(s)
	}
	return p
}

// Predicate compiles q's filter stage.
func (q *Query) Predicate() *Predicate { return Compile(q.Filter) }

// NeedsPayload reports whether exact evaluation requires the event payload.
func (p *Predicate) NeedsPayload() bool { return p.needsPayload }

// StampBounds returns the [lo, hi] hull the predicate allows for stamps
// (hi == ^uint64(0) means unbounded above).
func (p *Predicate) StampBounds() (lo, hi uint64) { return p.minStamp, p.maxStamp }

// TimeBounds returns the [lo, hi] hull for event timestamps.
func (p *Predicate) TimeBounds() (lo, hi uint64) { return p.minTS, p.maxTS }

// CoreMask returns the presence-bitmap mask of cores the predicate can
// match (bit min(core,63)); ^uint64(0) when unconstrained.
func (p *Predicate) CoreMask() uint64 { return p.coreMask }

// CatMask is CoreMask for categories.
func (p *Predicate) CatMask() uint64 { return p.catMask }

// Match evaluates the predicate exactly against a full entry.
func (p *Predicate) Match(e *tracer.Entry) bool {
	if p.expr == nil {
		return true
	}
	return evalEntry(p.expr, e)
}

// MatchHeader evaluates against header fields only. Payload predicates
// evaluate to "maybe" (true), so a false return is exact ("provably no")
// while true may still need a payload re-check when NeedsPayload.
func (p *Predicate) MatchHeader(stamp, ts uint64, core uint8, tid uint32, cat, level uint8) bool {
	if p.expr == nil {
		return true
	}
	return evalHeader(p.expr, stamp, ts, core, tid, cat, level) != triNo
}

// MatchMeta evaluates against a file/block summary. False means the
// summarized range provably contains no matching event and can be skipped.
func (p *Predicate) MatchMeta(m *Meta) bool {
	if p.expr == nil {
		return true
	}
	return evalMeta(p.expr, m) != triNo
}

func needsPayload(e Expr) bool {
	switch e := e.(type) {
	case *And:
		return needsPayload(e.L) || needsPayload(e.R)
	case *Or:
		return needsPayload(e.L) || needsPayload(e.R)
	case *Not:
		return needsPayload(e.X)
	case *PayloadMatch:
		return true
	default:
		return false
	}
}

// ---- exact evaluation ----

func evalEntry(e Expr, ev *tracer.Entry) bool {
	switch e := e.(type) {
	case *And:
		return evalEntry(e.L, ev) && evalEntry(e.R, ev)
	case *Or:
		return evalEntry(e.L, ev) || evalEntry(e.R, ev)
	case *Not:
		return !evalEntry(e.X, ev)
	case *Cmp:
		return cmpU64(fieldValue(e.Field, ev), e.Op, e.Val)
	case *PayloadMatch:
		return e.match(ev.Payload)
	}
	return false
}

func fieldValue(f Field, ev *tracer.Entry) uint64 {
	switch f {
	case FStamp:
		return ev.Stamp
	case FTime:
		return ev.TS
	case FCore:
		return uint64(ev.Core)
	case FTID:
		return uint64(ev.TID)
	case FCategory:
		return uint64(ev.Category)
	default: // FLevel
		return uint64(ev.Level)
	}
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

// ---- tri-state evaluation (header and metadata fidelities) ----

// tri is a three-valued truth: triNo is a proof of non-match, triYes a
// proof of match, triMaybe neither. The distinction keeps Not sound: a
// negation only flips proofs, never guesses.
type tri uint8

const (
	triNo tri = iota
	triMaybe
	triYes
)

func triNot(t tri) tri {
	switch t {
	case triNo:
		return triYes
	case triYes:
		return triNo
	default:
		return triMaybe
	}
}

func triAnd(a, b tri) tri {
	if a == triNo || b == triNo {
		return triNo
	}
	if a == triYes && b == triYes {
		return triYes
	}
	return triMaybe
}

func triOr(a, b tri) tri {
	if a == triYes || b == triYes {
		return triYes
	}
	if a == triNo && b == triNo {
		return triNo
	}
	return triMaybe
}

func triBool(b bool) tri {
	if b {
		return triYes
	}
	return triNo
}

func evalHeader(e Expr, stamp, ts uint64, core uint8, tid uint32, cat, level uint8) tri {
	switch e := e.(type) {
	case *And:
		return triAnd(evalHeader(e.L, stamp, ts, core, tid, cat, level),
			evalHeader(e.R, stamp, ts, core, tid, cat, level))
	case *Or:
		return triOr(evalHeader(e.L, stamp, ts, core, tid, cat, level),
			evalHeader(e.R, stamp, ts, core, tid, cat, level))
	case *Not:
		return triNot(evalHeader(e.X, stamp, ts, core, tid, cat, level))
	case *Cmp:
		var x uint64
		switch e.Field {
		case FStamp:
			x = stamp
		case FTime:
			x = ts
		case FCore:
			x = uint64(core)
		case FTID:
			x = uint64(tid)
		case FCategory:
			x = uint64(cat)
		default:
			x = uint64(level)
		}
		return triBool(cmpU64(x, e.Op, e.Val))
	case *PayloadMatch:
		return triMaybe
	}
	return triMaybe
}

func evalMeta(e Expr, m *Meta) tri {
	switch e := e.(type) {
	case *And:
		return triAnd(evalMeta(e.L, m), evalMeta(e.R, m))
	case *Or:
		return triOr(evalMeta(e.L, m), evalMeta(e.R, m))
	case *Not:
		return triNot(evalMeta(e.X, m))
	case *Cmp:
		switch e.Field {
		case FStamp:
			return rangeTri(m.MinStamp, m.MaxStamp, e.Op, e.Val)
		case FTime:
			return rangeTri(m.MinTS, m.MaxTS, e.Op, e.Val)
		case FCore:
			return bitsTri(m.CoreBits, e.Op, e.Val)
		case FCategory:
			return bitsTri(m.CatBits, e.Op, e.Val)
		case FTID:
			if !m.HasTID {
				return triMaybe
			}
			t := rangeTri(uint64(m.MinTID), uint64(m.MaxTID), e.Op, e.Val)
			// The bloom can veto equality probes the range alone can't.
			if t != triNo && e.Op == OpEq && m.TIDMay != nil &&
				e.Val <= uint64(^uint32(0)) && !m.TIDMay(uint32(e.Val)) {
				return triNo
			}
			return t
		default: // FLevel: no summary kept
			return triMaybe
		}
	case *PayloadMatch:
		return triMaybe
	}
	return triMaybe
}

// rangeTri evaluates `x op v` over all x in [lo, hi]: triYes if every value
// satisfies it, triNo if none does.
func rangeTri(lo, hi uint64, op CmpOp, v uint64) tri {
	if lo > hi {
		return triMaybe // malformed/unknown summary: never prune on it
	}
	var any, all bool
	switch op {
	case OpEq:
		any = lo <= v && v <= hi
		all = lo == v && hi == v
	case OpNe:
		any = !(lo == v && hi == v)
		all = v < lo || v > hi
	case OpLt:
		any = lo < v
		all = hi < v
	case OpLe:
		any = lo <= v
		all = hi <= v
	case OpGt:
		any = hi > v
		all = lo > v
	default: // OpGe
		any = hi >= v
		all = lo >= v
	}
	if !any {
		return triNo
	}
	if all {
		return triYes
	}
	return triMaybe
}

// bitsTri evaluates a comparison over a presence bitmap where bit b<63
// asserts value b is present and bit 63 asserts some value in [63,255] is.
func bitsTri(bits uint64, op CmpOp, v uint64) tri {
	if bits == 0 {
		return triMaybe // no summary
	}
	var any, all bool
	all = true
	for b := uint(0); b < 64; b++ {
		if bits&(1<<b) == 0 {
			continue
		}
		var sAny, sAll bool
		if b < 63 {
			sAny = cmpU64(uint64(b), op, v)
			sAll = sAny
		} else {
			// Bit 63 covers values 63..255.
			switch rangeTri(63, 255, op, v) {
			case triYes:
				sAny, sAll = true, true
			case triNo:
				sAny, sAll = false, false
			default:
				sAny, sAll = true, false
			}
		}
		any = any || sAny
		all = all && sAll
	}
	if !any {
		return triNo
	}
	if all {
		return triYes
	}
	return triMaybe
}

// ---- bounds and value-set extraction ----

// boundsOf returns the hull [lo, hi] of values field f can take under e.
// Unconstrained sides come back as 0 / ^uint64(0).
func boundsOf(e Expr, f Field) (lo, hi uint64) {
	switch e := e.(type) {
	case *And:
		l1, h1 := boundsOf(e.L, f)
		l2, h2 := boundsOf(e.R, f)
		lo, hi = max64(l1, l2), min64(h1, h2)
		if lo > hi { // contradictory: collapse to an empty probe point
			return lo, lo
		}
		return lo, hi
	case *Or:
		l1, h1 := boundsOf(e.L, f)
		l2, h2 := boundsOf(e.R, f)
		return min64(l1, l2), max64(h1, h2)
	case *Cmp:
		if e.Field != f {
			return 0, ^uint64(0)
		}
		switch e.Op {
		case OpEq:
			return e.Val, e.Val
		case OpLt:
			if e.Val == 0 {
				return 0, 0 // unsatisfiable; [0,0] is still sound
			}
			return 0, e.Val - 1
		case OpLe:
			return 0, e.Val
		case OpGt:
			if e.Val == ^uint64(0) {
				return e.Val, e.Val
			}
			return e.Val + 1, ^uint64(0)
		case OpGe:
			return e.Val, ^uint64(0)
		default: // OpNe constrains nothing hull-wise
			return 0, ^uint64(0)
		}
	default: // Not, PayloadMatch: conservative
		return 0, ^uint64(0)
	}
}

// valueSet returns the set of byte values f may take under e, or nil when
// unconstrained. Sound for pruning: the true match set is a subset.
func valueSet(e Expr, f Field) *[256]bool {
	switch e := e.(type) {
	case *And:
		l, r := valueSet(e.L, f), valueSet(e.R, f)
		if l == nil {
			return r
		}
		if r == nil {
			return l
		}
		var s [256]bool
		for i := range s {
			s[i] = l[i] && r[i]
		}
		return &s
	case *Or:
		l, r := valueSet(e.L, f), valueSet(e.R, f)
		if l == nil || r == nil {
			return nil
		}
		var s [256]bool
		for i := range s {
			s[i] = l[i] || r[i]
		}
		return &s
	case *Cmp:
		if e.Field != f {
			return nil
		}
		var s [256]bool
		for i := range s {
			s[i] = cmpU64(uint64(i), e.Op, e.Val)
		}
		return &s
	default: // Not, PayloadMatch: conservative
		return nil
	}
}

// maskOf collapses a byte-value set to the store's bit-min(v,63) bitmap.
func maskOf(s *[256]bool) uint64 {
	var m uint64
	for v := 0; v < 256; v++ {
		if s[v] {
			b := v
			if b > 63 {
				b = 63
			}
			m |= 1 << uint(b)
		}
	}
	return m
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
