package tracer

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord hammers the record decoder with arbitrary bytes: it
// must never panic, never return a record larger than its input, and
// anything it accepts must re-encode consistently. The decoder parses
// block contents that may have been half-written when a block was closed
// or skipped, so robustness here is a correctness property of the tracer,
// not just hygiene.
func FuzzDecodeRecord(f *testing.F) {
	// Seed with every record kind plus mutations.
	buf := make([]byte, 256)
	e := &Entry{Stamp: 7, TS: 9, Core: 3, TID: 1234, Category: 5, Level: 2, Payload: []byte("seed-payload")}
	n, _ := EncodeEvent(buf, e)
	f.Add(append([]byte(nil), buf[:n]...))
	n = EncodeDummy(buf, 64)
	f.Add(append([]byte(nil), buf[:n]...))
	n = EncodeBlockHeader(buf, 42)
	f.Add(append([]byte(nil), buf[:n]...))
	n = EncodeSkip(buf, 99)
	f.Add(append([]byte(nil), buf[:n]...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if rec.Size < Align || rec.Size > len(data) || rec.Size%Align != 0 {
			t.Fatalf("accepted record with size %d from %d input bytes", rec.Size, len(data))
		}
		if rec.Kind == KindEvent {
			ev := rec.Event
			if len(ev.Payload) > rec.Size-EventHeaderSize {
				t.Fatalf("payload %d exceeds record body %d", len(ev.Payload), rec.Size-EventHeaderSize)
			}
			// Round-trip: re-encoding the decoded event must reproduce
			// the identity fields.
			out := make([]byte, ev.WireSize())
			if _, err := EncodeEvent(out, &ev); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			rec2, err := DecodeRecord(out)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			g := rec2.Event
			if g.Stamp != ev.Stamp || g.TS != ev.TS || g.Core != ev.Core ||
				g.TID != ev.TID || g.Category != ev.Category || g.Level != ev.Level ||
				!bytes.Equal(g.Payload, ev.Payload) {
				t.Fatalf("round-trip mismatch: %+v vs %+v", g, ev)
			}
		}
	})
}

// FuzzDecodeAll checks the streaming decoder: it must never panic, must
// consume monotonically, and must flag truncation instead of over-reading.
func FuzzDecodeAll(f *testing.F) {
	buf := make([]byte, 512)
	off := EncodeBlockHeader(buf, 1)
	n, _ := EncodeEvent(buf[off:], &Entry{Stamp: 2, Payload: []byte("x")})
	off += n
	off += EncodeDummy(buf[off:], 32)
	f.Add(append([]byte(nil), buf[:off]...))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := DecodeAll(data)
		total := 0
		for _, r := range recs {
			if r.Size < Align {
				t.Fatalf("record size %d", r.Size)
			}
			total += r.Size
		}
		if total > len(data) {
			t.Fatalf("consumed %d of %d bytes", total, len(data))
		}
	})
}

// FuzzDecodeEvents is the differential check for the event-only
// decoder: on arbitrary bytes it must return exactly the events
// DecodeAll returns (structural records skipped, payloads aliasing the
// input) with the same truncated verdict, and leave dst's prefix alone.
func FuzzDecodeEvents(f *testing.F) {
	buf := make([]byte, 512)
	off := EncodeBlockHeader(buf, 1)
	n, _ := EncodeEvent(buf[off:], &Entry{Stamp: 2, TS: 3, TID: 4, Payload: []byte("payload")})
	off += n
	off += EncodeDummy(buf[off:], 32)
	n, _ = EncodeEvent(buf[off:], &Entry{Stamp: 5, Core: 1, Category: 2, Level: 3})
	off += n
	off += EncodeSkip(buf[off:], 9)
	f.Add(append([]byte(nil), buf[:off]...))
	f.Add(append([]byte(nil), buf[:off-5]...))
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, wantTrunc := DecodeAll(data)
		var want []Entry
		for _, r := range recs {
			if r.Kind == KindEvent {
				want = append(want, r.Event)
			}
		}
		sentinel := Entry{Stamp: ^uint64(0)}
		got, trunc := DecodeEvents([]Entry{sentinel}, data)
		if trunc != wantTrunc {
			t.Fatalf("truncated %v, DecodeAll says %v", trunc, wantTrunc)
		}
		if len(got) != len(want)+1 || got[0].Stamp != sentinel.Stamp {
			t.Fatalf("decoded %d events after the prefix, want %d", len(got)-1, len(want))
		}
		for i, w := range want {
			g := got[i+1]
			if g.Stamp != w.Stamp || g.TS != w.TS || g.Core != w.Core || g.TID != w.TID ||
				g.Category != w.Category || g.Level != w.Level || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("event %d: %+v, want %+v", i, g, w)
			}
			if len(g.Payload) > 0 && &g.Payload[0] != &w.Payload[0] {
				t.Fatalf("event %d: payload does not alias the input", i)
			}
		}
	})
}
