// Package btql implements the BTrace query language: a small composable
// filter + aggregate language over trace events, in the spirit of Tempo's
// TraceQL scaled down to BTrace's fixed event shape.
//
// A query is a boolean filter over the event fields, optionally piped into
// one aggregate:
//
//	category == 2 && time >= 5ms && payload contains "alloc"
//	core != 0 || tid == 4096
//	stamp >= 1000 && stamp < 2000 | count()
//	category == 3 | rate(10ms)
//	time < 1s | topk(5, tid)
//	tid in (4096, 4097) && core in (0, 1)
//
// Queries parse to a typed AST (Expr) and compile to a Predicate, the one
// event filter the server has, evaluated at four fidelities that match the
// store's pruning ladder and the live tail's admit hook:
//
//   - MatchMeta: against file/block summaries (min/max ranges, presence
//     bitmaps, TID blooms) — tri-state, false means provably no match, so a
//     whole file or block can be skipped without touching its bytes.
//   - Select: against a block held by column — one pass per column a leaf
//     names, into a tri-state row selection (columns.go).
//   - MatchHeader: against a decoded event header (no payload) — exact for
//     payload-free predicates, conservative otherwise.
//   - Match: against a full tracer.Entry — always exact.
package btql

import (
	"fmt"
	"strings"
)

// Field identifies one of the queryable event fields.
type Field uint8

const (
	FStamp Field = iota // global order stamp
	FTime               // raw timestamp (ns scale)
	FCore
	FTID
	FCategory
	FLevel
	FPayload // only valid in contains/prefix matches
)

var fieldNames = map[Field]string{
	FStamp:    "stamp",
	FTime:     "time",
	FCore:     "core",
	FTID:      "tid",
	FCategory: "category",
	FLevel:    "level",
	FPayload:  "payload",
}

func (f Field) String() string { return fieldNames[f] }

// CmpOp is a comparison operator in a Cmp node.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = map[CmpOp]string{
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

func (op CmpOp) String() string { return cmpNames[op] }

// Expr is a node in the filter AST. Expressions are immutable after Parse.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// And is the conjunction L && R.
type And struct{ L, R Expr }

// Or is the disjunction L || R.
type Or struct{ L, R Expr }

// Not is the negation !X.
type Not struct{ X Expr }

// Cmp compares a numeric field against a literal.
type Cmp struct {
	Field Field
	Op    CmpOp
	Val   uint64
}

// InList is `field in (v, …)`: the field's value is one of at most
// MaxInList literals. An empty list matches nothing.
type InList struct {
	Field Field
	Vals  []uint64
}

// PayloadMatch is `payload contains "s"` (Prefix false) or
// `payload prefix "s"` (Prefix true).
type PayloadMatch struct {
	Prefix bool
	Needle string
}

func (*And) isExpr()          {}
func (*Or) isExpr()           {}
func (*Not) isExpr()          {}
func (*Cmp) isExpr()          {}
func (*InList) isExpr()       {}
func (*PayloadMatch) isExpr() {}

// String renders the expression fully parenthesized; Parse(e.String())
// yields a structurally identical AST (the round-trip the fuzzer checks).
func (e *And) String() string { return "(" + e.L.String() + " && " + e.R.String() + ")" }
func (e *Or) String() string  { return "(" + e.L.String() + " || " + e.R.String() + ")" }
func (e *Not) String() string { return "!" + e.X.String() }

func (e *Cmp) String() string {
	return fmt.Sprintf("(%s %s %d)", e.Field, e.Op, e.Val)
}

func (e *InList) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s in (", e.Field)
	for i, v := range e.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("))")
	return b.String()
}

func (e *PayloadMatch) String() string {
	op := "contains"
	if e.Prefix {
		op = "prefix"
	}
	return "(payload " + op + " " + quoteNeedle(e.Needle) + ")"
}

// quoteNeedle quotes a needle using only the escapes the BTQL lexer
// accepts (\" \\ \n \t \0 \xHH), so String() always reparses.
func quoteNeedle(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\t':
			b.WriteString(`\t`)
		case c < 0x20 || c >= 0x7f:
			const hex = "0123456789abcdef"
			b.WriteString(`\x`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Between, In and AllOf build a filter from the field form of a request
// (store.Query, live.Filter, the HTTP field parameters) without going
// through text. They own that form's conventions — a zero bound is no
// bound, an empty list is no restriction — and a nil Expr is the filter
// that matches everything.

// Between is lo <= f <= hi; a zero lo or hi leaves that side open.
func Between(f Field, lo, hi uint64) Expr {
	var lower, upper Expr
	if lo != 0 {
		lower = &Cmp{Field: f, Op: OpGe, Val: lo}
	}
	if hi != 0 {
		upper = &Cmp{Field: f, Op: OpLe, Val: hi}
	}
	return AllOf(lower, upper)
}

// In is `f in (vals…)`, or nil for an empty list. vals is copied.
func In[T uint8 | uint32](f Field, vals []T) Expr {
	if len(vals) == 0 {
		return nil
	}
	e := &InList{Field: f, Vals: make([]uint64, len(vals))}
	for i, v := range vals {
		e.Vals[i] = uint64(v)
	}
	return e
}

// AllOf is the conjunction of its non-nil arguments, nil when there are
// none.
func AllOf(es ...Expr) Expr {
	var all Expr
	for _, e := range es {
		switch {
		case e == nil:
		case all == nil:
			all = e
		default:
			all = &And{L: all, R: e}
		}
	}
	return all
}

// AggKind selects the aggregate operator of a query.
type AggKind uint8

const (
	AggCount AggKind = iota // count(): total matching events
	AggRate                 // rate(window): events per window bucket, by event time
	AggTopK                 // topk(n, field): most frequent field values
)

// AggSpec is the parsed aggregate stage of a query.
type AggSpec struct {
	Kind     AggKind
	WindowNs uint64 // AggRate: bucket width in nanoseconds
	K        int    // AggTopK: number of values to keep
	Field    Field  // AggTopK: core, tid, category, or level
}

func (a *AggSpec) String() string {
	switch a.Kind {
	case AggRate:
		return fmt.Sprintf("rate(%dns)", a.WindowNs)
	case AggTopK:
		return fmt.Sprintf("topk(%d, %s)", a.K, a.Field)
	default:
		return "count()"
	}
}

// Query is a parsed BTQL query: an optional filter and an optional aggregate.
// A nil Filter matches every event.
type Query struct {
	Filter Expr
	Agg    *AggSpec
}

func (q *Query) String() string {
	var b strings.Builder
	if q.Filter != nil {
		b.WriteString(q.Filter.String())
	}
	if q.Agg != nil {
		if q.Filter != nil {
			b.WriteString(" ")
		}
		b.WriteString("| ")
		b.WriteString(q.Agg.String())
	}
	return b.String()
}
