package btql

import (
	"reflect"
	"strings"
	"testing"

	"btrace/internal/tracer"
)

// FuzzBTQLParse checks that Parse never panics on arbitrary input, and that
// any query it accepts survives a String() → Parse round trip unchanged —
// the property the store relies on when it logs or forwards query text.
func FuzzBTQLParse(f *testing.F) {
	f.Add("category == 2 && time >= 5ms")
	f.Add(`payload contains "oom" || !(core == 0)`)
	f.Add("{ stamp >= 100 && stamp < 200 } | count()")
	f.Add("| topk(5, tid)")
	f.Add("tid == 4096 | rate(10ms)")
	f.Add("(((((core==1)))))")
	f.Add(`payload prefix "\"\\\n"`)
	f.Add("core == 18446744073709551615")
	f.Add("")
	f.Add("tid in (1)")
	f.Add("core in (0,1,255)")
	f.Add("tid in ()")
	f.Add("tid in (" + strings.Repeat("7, ", 299) + "7)")
	f.Add(`!(tid in (1,2)) || payload contains "x"`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("String() of accepted query does not reparse: %q -> %q: %v", src, q.String(), err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip changed AST: %q -> %q", src, q.String())
		}
		// Compiling and probing must not panic either.
		p := Compile(q.Filter)
		p.MatchMeta(&Meta{MinStamp: 0, MaxStamp: ^uint64(0), MaxTS: ^uint64(0)})
		p.MatchHeader(1, 2, 3, 4, 5, 6)
		p.Match(&tracer.Entry{Stamp: 1, TS: 2, Core: 3, TID: 4, Category: 5, Level: 6, Payload: []byte("x")})
	})
}
