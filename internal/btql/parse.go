package btql

// Grammar (everything is case-sensitive, whitespace-insensitive):
//
//	query    := filter? ( '|' agg )?
//	filter   := '{' orExpr '}' | orExpr
//	orExpr   := andExpr ( '||' andExpr )*
//	andExpr  := unary ( '&&' unary )*
//	unary    := '!' unary | '(' orExpr ')' | pred
//	pred     := field cmpOp number
//	          | field 'in' '(' ( number ( ',' number )* )? ')'
//	          | 'payload' ('contains'|'prefix') string
//	field    := 'stamp' | 'time' | 'core' | 'tid' | 'category' | 'level'
//	cmpOp    := '==' | '!=' | '<' | '<=' | '>' | '>='
//	agg      := 'count' '(' ')'
//	          | 'rate' '(' number ')'
//	          | 'topk' '(' number ',' field ')'
//	number   := [0-9]+ ('ns'|'us'|'ms'|'s'|'m')?
//
// The braces form ({ ... }) is accepted for TraceQL familiarity and is
// equivalent to the bare filter.

const (
	// maxDepth bounds parser recursion so adversarial inputs (fuzzers,
	// untrusted ?q=) cannot blow the stack.
	maxDepth = 64
	// MaxQueryLen bounds accepted query source length.
	MaxQueryLen = 4096
	// maxTopK bounds topk fan-out so one query cannot hold an unbounded
	// value table.
	maxTopK = 1024
	// MaxInList bounds the members of an `in (…)` list and of a
	// comma-list request parameter: a filter is a selection, not a
	// payload.
	MaxInList = 256
)

var fieldByName = map[string]Field{
	"stamp":    FStamp,
	"time":     FTime,
	"core":     FCore,
	"tid":      FTID,
	"category": FCategory,
	"level":    FLevel,
	"payload":  FPayload,
}

type parser struct {
	lex lexer
	tok token // lookahead
}

// Parse parses a BTQL query. An empty (or all-whitespace) source yields a
// query with a nil Filter that matches everything.
func Parse(src string) (*Query, error) {
	if len(src) > MaxQueryLen {
		return nil, errAt(MaxQueryLen, "query longer than %d bytes", MaxQueryLen)
	}
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{}
	if p.tok.kind != tEOF && p.tok.kind != tPipe {
		braced := p.tok.kind == tLBrace
		if braced {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		e, err := p.parseOr(0)
		if err != nil {
			return nil, err
		}
		if braced {
			if p.tok.kind != tRBrace {
				return nil, errAt(p.tok.pos, "expected '}'")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		q.Filter = e
	}
	if p.tok.kind == tPipe {
		if err := p.advance(); err != nil {
			return nil, err
		}
		agg, err := p.parseAgg()
		if err != nil {
			return nil, err
		}
		q.Agg = agg
	}
	if p.tok.kind != tEOF {
		return nil, errAt(p.tok.pos, "trailing input")
	}
	return q, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) parseOr(depth int) (Expr, error) {
	l, err := p.parseAnd(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tOrOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd(depth + 1)
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd(depth int) (Expr, error) {
	l, err := p.parseUnary(depth + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tAndAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary(depth int) (Expr, error) {
	if depth > maxDepth {
		return nil, errAt(p.tok.pos, "expression nested deeper than %d", maxDepth)
	}
	switch p.tok.kind {
	case tBang:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr(depth + 1)
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, errAt(p.tok.pos, "expected ')'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	case tIdent:
		return p.parsePred()
	default:
		return nil, errAt(p.tok.pos, "expected predicate")
	}
}

func (p *parser) parsePred() (Expr, error) {
	f, ok := fieldByName[p.tok.text]
	if !ok {
		return nil, errAt(p.tok.pos, "unknown field %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if f == FPayload {
		if p.tok.kind != tIdent || (p.tok.text != "contains" && p.tok.text != "prefix") {
			return nil, errAt(p.tok.pos, "payload supports 'contains' and 'prefix'")
		}
		prefix := p.tok.text == "prefix"
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tString {
			return nil, errAt(p.tok.pos, "expected quoted string")
		}
		needle := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &PayloadMatch{Prefix: prefix, Needle: needle}, nil
	}
	if p.tok.kind == tIdent && p.tok.text == "in" {
		return p.parseInList(f)
	}
	var op CmpOp
	switch p.tok.kind {
	case tEq:
		op = OpEq
	case tNe:
		op = OpNe
	case tLt:
		op = OpLt
	case tLe:
		op = OpLe
	case tGt:
		op = OpGt
	case tGe:
		op = OpGe
	default:
		return nil, errAt(p.tok.pos, "expected comparison operator after %q", f)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tNumber {
		return nil, errAt(p.tok.pos, "expected number")
	}
	v := p.tok.num
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &Cmp{Field: f, Op: op, Val: v}, nil
}

// parseInList parses the `( v, … )` of `f in (…)`; the lookahead is the
// `in`.
func (p *parser) parseInList(f Field) (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tLParen {
		return nil, errAt(p.tok.pos, "expected '(' after 'in'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e := &InList{Field: f}
	for p.tok.kind != tRParen {
		if len(e.Vals) > 0 {
			if p.tok.kind != tComma {
				return nil, errAt(p.tok.pos, "expected ',' or ')'")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tNumber {
			return nil, errAt(p.tok.pos, "expected number")
		}
		if len(e.Vals) == MaxInList {
			return nil, errAt(p.tok.pos, "in list longer than %d values", MaxInList)
		}
		e.Vals = append(e.Vals, p.tok.num)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return e, p.advance()
}

func (p *parser) parseAgg() (*AggSpec, error) {
	if p.tok.kind != tIdent {
		return nil, errAt(p.tok.pos, "expected aggregate (count, rate, topk)")
	}
	name, pos := p.tok.text, p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tLParen {
		return nil, errAt(p.tok.pos, "expected '(' after %q", name)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	spec := &AggSpec{}
	switch name {
	case "count":
		spec.Kind = AggCount
	case "rate":
		spec.Kind = AggRate
		if p.tok.kind != tNumber {
			return nil, errAt(p.tok.pos, "rate needs a window, e.g. rate(10ms)")
		}
		if p.tok.num == 0 {
			return nil, errAt(p.tok.pos, "rate window must be > 0")
		}
		spec.WindowNs = p.tok.num
		if err := p.advance(); err != nil {
			return nil, err
		}
	case "topk":
		spec.Kind = AggTopK
		if p.tok.kind != tNumber {
			return nil, errAt(p.tok.pos, "topk needs a count, e.g. topk(5, tid)")
		}
		if p.tok.num == 0 || p.tok.num > maxTopK {
			return nil, errAt(p.tok.pos, "topk count must be in [1,%d]", maxTopK)
		}
		spec.K = int(p.tok.num)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tComma {
			return nil, errAt(p.tok.pos, "expected ',' then a field")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tIdent {
			return nil, errAt(p.tok.pos, "expected field")
		}
		f, ok := fieldByName[p.tok.text]
		if !ok || f == FPayload || f == FStamp || f == FTime {
			return nil, errAt(p.tok.pos, "topk groups by core, tid, category, or level")
		}
		spec.Field = f
		if err := p.advance(); err != nil {
			return nil, err
		}
	default:
		return nil, errAt(pos, "unknown aggregate %q", name)
	}
	if p.tok.kind != tRParen {
		return nil, errAt(p.tok.pos, "expected ')'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return spec, nil
}
