package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// FuzzParseQuery throws arbitrary query strings at /live's parameter
// surface — btql.ParseParams, the parser /store/query shares — and on
// through what the handler does with the result: it must never panic,
// an accepted parameter set must hold the parser's bounds (capped
// lists, ordered windows), and the filter it compiles to must be safe
// to subscribe with and publish through.
func FuzzParseQuery(f *testing.F) {
	f.Add("min_ts=10&max_ts=20&cores=0,1&categories=2,3&tids=7,8,9")
	f.Add("cores=256")
	f.Add("min_ts=5&max_ts=4")
	f.Add("tids=" + string(make([]byte, 300)))
	f.Add("categories=1,,2&min_ts=banana")
	f.Add("%gh&%ij")
	f.Add("q=tid+in+(7,8)+%26%26+payload+contains+%22x%22&min_stamp=3&max_stamp=9")
	f.Add("q=category+%3D%3D+2+%7C+count()")
	f.Add("tids=" + strings.Repeat("1,", 300))
	h := NewHub(Config{BufferEvents: 4})
	es := []tracer.Entry{{Stamp: 5, TS: 10, TID: 7, Category: 2, Payload: []byte("x")}, {Stamp: 6, TS: 20, Core: 1, TID: 8}}
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := btql.ParseParams(v)
		if err != nil {
			return
		}
		var bound func(e btql.Expr)
		bound = func(e btql.Expr) {
			switch e := e.(type) {
			case *btql.And:
				bound(e.L)
				bound(e.R)
			case *btql.Or:
				bound(e.L)
				bound(e.R)
			case *btql.Not:
				bound(e.X)
			case *btql.InList:
				if len(e.Vals) > btql.MaxInList {
					t.Fatalf("accepted a %d-member list: %q", len(e.Vals), raw)
				}
			}
		}
		bound(q.Filter)
		for _, r := range [][2]string{{"min_ts", "max_ts"}, {"min_stamp", "max_stamp"}} {
			lo, _ := strconv.ParseUint(v.Get(r[0]), 10, 64)
			if hi, _ := strconv.ParseUint(v.Get(r[1]), 10, 64); hi != 0 && hi < lo {
				t.Fatalf("accepted inverted window %s=%d %s=%d", r[0], lo, r[1], hi)
			}
		}
		// An accepted filter must be safe to evaluate.
		sub, err := h.Subscribe(Filter{Tenant: "tenant", Pred: q.Predicate()})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		h.Publish("tenant", es)
		if st := sub.Stats(); st.Matched > uint64(len(es)) {
			t.Fatalf("matched %d of %d events", st.Matched, len(es))
		}
	})
}

// referenceFrame is the encoder AppendFrame replaced, kept as the
// definition of the wire bytes: encoding/json over the Frame struct the
// client decodes into, framed with fmt.
func referenceFrame(e *tracer.Entry) []byte {
	data, err := json.Marshal(Frame{
		Stamp:    e.Stamp,
		TS:       e.TS,
		Core:     e.Core,
		TID:      e.TID,
		Category: e.Category,
		Level:    e.Level,
		Payload:  e.Payload,
	})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "event: %s\ndata: %s\n\n", EventTrace, data)
	return buf.Bytes()
}

// FuzzFrameRoundTrip checks the SSE codec both ways: AppendFrame must
// write exactly the reference encoder's bytes (after whatever dst
// already held), and any entry must survive encode → stream-read →
// decode byte-exact without the stream reader panicking.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3), uint32(4), uint8(5), uint8(1), []byte("payload"))
	f.Add(uint64(0), uint64(0), uint8(0), uint32(0), uint8(0), uint8(0), []byte(nil))
	f.Add(^uint64(0), ^uint64(0), ^uint8(0), ^uint32(0), ^uint8(0), ^uint8(0), []byte{0, 255, 10, 13})
	f.Add(uint64(7), uint64(8), uint8(9), uint32(10), uint8(11), uint8(2), []byte("<&>\u2028\"\\"))
	f.Fuzz(func(t *testing.T, stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte) {
		if len(payload) > tracer.MaxPayload {
			payload = payload[:tracer.MaxPayload]
		}
		in := tracer.Entry{
			Stamp: stamp, TS: ts, Core: core, TID: tid,
			Category: cat, Level: level, Payload: payload,
		}
		want := referenceFrame(&in)
		if got := AppendFrame([]byte("prefix"), &in); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendFrame:\n got %q\nwant prefix+%q", got, want)
		}
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, &in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("EncodeFrame:\n got %q\nwant %q", buf.Bytes(), want)
		}
		ev, data, err := NewStreamReader(&buf).Next()
		if err != nil || ev != EventTrace {
			t.Fatalf("stream read: event %q err %v", ev, err)
		}
		out, err := DecodeFrame(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Stamp != in.Stamp || out.TS != in.TS || out.Core != in.Core ||
			out.TID != in.TID || out.Category != in.Category || out.Level != in.Level ||
			!bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}
	})
}

// FuzzStreamReader feeds arbitrary bytes to the SSE client: no panics,
// and any trace frame it yields must decode or error — never crash.
func FuzzStreamReader(f *testing.F) {
	f.Add([]byte("event: trace\ndata: {\"stamp\":1}\n\n"))
	f.Add([]byte("event: missed\ndata: 9\n\n: comment\n\nevent: evicted\ndata: 3\n\n"))
	f.Add([]byte("data: no event\n\nevent: trace\n\n"))
	f.Add([]byte(": \r\n\r\nevent:\t x\ndata:\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sr := NewStreamReader(bytes.NewReader(raw))
		for i := 0; i < 64; i++ {
			ev, data, err := sr.Next()
			if err != nil {
				return
			}
			switch ev {
			case EventTrace:
				DecodeFrame(data)
			case EventMissed, EventEvicted:
				ParseCount(data)
			}
		}
	})
}
