package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"testing"

	"btrace/internal/tracer"
)

// FuzzParseQuery throws arbitrary query strings at the /live parameter
// parser: it must never panic, and every accepted filter must satisfy
// its own invariants (bounded lists, ordered time window).
func FuzzParseQuery(f *testing.F) {
	f.Add("min_ts=10&max_ts=20&cores=0,1&categories=2,3&tids=7,8,9")
	f.Add("cores=256")
	f.Add("min_ts=5&max_ts=4")
	f.Add("tids=" + string(make([]byte, 300)))
	f.Add("categories=1,,2&min_ts=banana")
	f.Add("%gh&%ij")
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		filter, err := ParseQuery(v)
		if err != nil {
			return
		}
		if filter.MaxTS != 0 && filter.MaxTS < filter.MinTS {
			t.Fatalf("accepted inverted time window: %+v", filter)
		}
		if len(filter.Cores) > maxFilterList || len(filter.Categories) > maxFilterList ||
			len(filter.TIDs) > maxFilterList {
			t.Fatalf("accepted oversized filter list: %+v", filter)
		}
		// An accepted filter must be safe to evaluate.
		m := filter.compile()
		_ = m.tenantOK("tenant") && m.entry(&tracer.Entry{TS: filter.MinTS, TID: 1, Category: 1})
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
