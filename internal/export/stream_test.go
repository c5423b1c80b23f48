package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"btrace/internal/tracer"
)

func sampleEntries() []tracer.Entry {
	return []tracer.Entry{
		{Stamp: 1, TS: 10, Core: 0, TID: 1, Category: 3, Level: 1, Payload: []byte("hello")},
		{Stamp: 2, TS: 20, Core: 1, TID: 2, Category: 5, Level: 2, Payload: nil},
		{Stamp: 3, TS: 30, Core: 2, TID: 3, Category: 7, Level: 3, Payload: []byte{}},
		{Stamp: 4, TS: 40, Core: 3, TID: 0xFFFFFF, Category: 255, Level: 255, Payload: bytes.Repeat([]byte{0xAB}, tracer.MaxPayload)},
		{Stamp: 5, TS: 50, Core: 4, TID: 5, Category: 0, Level: 0, Payload: []byte{0}},
	}
}

func entriesEqual(a, b tracer.Entry) bool {
	return a.Stamp == b.Stamp && a.TS == b.TS && a.Core == b.Core && a.TID == b.TID &&
		a.Category == b.Category && a.Level == b.Level && string(a.Payload) == string(b.Payload)
}

// TestStreamRoundTrip: Encoder output decoded by Decoder reproduces every
// entry, including empty- and max-payload edges, and matches the batch
// encoder byte-for-byte.
func TestStreamRoundTrip(t *testing.T) {
	es := sampleEntries()

	var streamed bytes.Buffer
	enc := NewEncoder(&streamed)
	for i := range es {
		if err := enc.Encode(&es[i]); err != nil {
			t.Fatalf("Encode %d: %v", i, err)
		}
	}

	// Byte-for-byte identical to direct wire encoding.
	var direct bytes.Buffer
	buf := make([]byte, tracer.EventWireSize(tracer.MaxPayload))
	for i := range es {
		n, err := tracer.EncodeEvent(buf, &es[i])
		if err != nil {
			t.Fatal(err)
		}
		direct.Write(buf[:n])
	}
	if !bytes.Equal(streamed.Bytes(), direct.Bytes()) {
		t.Fatalf("streamed encoding differs from direct encoding (%d vs %d bytes)",
			streamed.Len(), direct.Len())
	}

	dec := NewDecoder(bytes.NewReader(streamed.Bytes()))
	var e tracer.Entry
	for i := range es {
		if err := dec.Next(&e); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		// A nil payload encodes as length 0 and decodes as nil; an empty
		// non-nil payload also decodes as nil — compare by content.
		if !entriesEqual(e, es[i]) {
			t.Fatalf("entry %d: got %+v want %+v", i, e, es[i])
		}
	}
	if err := dec.Next(&e); err != io.EOF {
		t.Fatalf("after last entry: %v, want io.EOF", err)
	}
	if events, skipped := dec.Counts(); events != len(es) || skipped != 0 {
		t.Fatalf("Counts = (%d, %d), want (%d, 0)", events, skipped, len(es))
	}
}

func TestStreamEncodeBatchMatchesLoop(t *testing.T) {
	es := sampleEntries()
	var a, b bytes.Buffer
	if err := NewEncoder(&a).EncodeBatch(es); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(&b)
	for i := range es {
		if err := enc.Encode(&es[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("EncodeBatch differs from per-entry Encode")
	}
}

func TestDecoderSkipsStructuralRecords(t *testing.T) {
	var buf bytes.Buffer
	rec := make([]byte, 64)
	n := tracer.EncodeBlockHeader(rec, 42)
	buf.Write(rec[:n])
	e0 := tracer.Entry{Stamp: 9, TS: 1, Payload: []byte("x")}
	n, err := tracer.EncodeEvent(rec, &e0)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(rec[:n])
	n = tracer.EncodeDummy(rec, 16)
	buf.Write(rec[:n])
	n = tracer.EncodeSkip(rec, 43)
	buf.Write(rec[:n])

	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	var e tracer.Entry
	if err := dec.Next(&e); err != nil || e.Stamp != 9 {
		t.Fatalf("Next = (%+v, %v)", e, err)
	}
	if err := dec.Next(&e); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
	if events, skipped := dec.Counts(); events != 1 || skipped != 3 {
		t.Fatalf("Counts = (%d, %d), want (1, 3)", events, skipped)
	}
}

func TestDecoderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	e0 := tracer.Entry{Stamp: 1, Payload: []byte("abcdefgh")}
	rec := make([]byte, 64)
	n, _ := tracer.EncodeEvent(rec, &e0)
	buf.Write(rec[:n])
	wire := buf.Bytes()

	for cut := 1; cut < len(wire); cut++ {
		dec := NewDecoder(bytes.NewReader(wire[:cut]))
		var e tracer.Entry
		if err := dec.Next(&e); err == nil {
			t.Fatalf("cut at %d decoded successfully", cut)
		}
	}
}

func TestDecoderRejectsOversizedRecord(t *testing.T) {
	// A record claiming more than the maximum event size must not drive a
	// giant allocation.
	w := make([]byte, 8)
	// kind=KindEvent, size=1 GiB (aligned).
	size := uint64(1 << 30)
	word := uint64(tracer.KindEvent)<<56 | size
	for i := 0; i < 8; i++ {
		w[i] = byte(word >> (8 * i))
	}
	dec := NewDecoder(bytes.NewReader(w))
	var e tracer.Entry
	err := dec.Next(&e)
	if err == nil || !errors.Is(err, tracer.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// missCursor is a sliceCursor that reports miss missed events on its
// first read.
type missCursor struct {
	sliceCursor
	miss uint64
}

func (c *missCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n, _, err := c.sliceCursor.Next(batch)
	m := c.miss
	c.miss = 0
	return n, m, err
}

func TestEncoderFromCursor(t *testing.T) {
	es := sampleEntries()
	var fromCursor, fromBatch bytes.Buffer
	events, missed, err := NewEncoder(&fromCursor).FromCursor(
		&missCursor{sliceCursor: sliceCursor{es: es}, miss: 7}, make([]tracer.Entry, 2))
	if err != nil {
		t.Fatal(err)
	}
	if events != len(es) || missed != 7 {
		t.Fatalf("FromCursor = (%d, %d), want (%d, 7)", events, missed, len(es))
	}
	if err := NewEncoder(&fromBatch).EncodeBatch(es); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromCursor.Bytes(), fromBatch.Bytes()) {
		t.Fatal("FromCursor output differs from EncodeBatch")
	}
}

func TestCursorExportersMatchSliceExporters(t *testing.T) {
	es := sampleEntries()
	batch := make([]tracer.Entry, 2)

	var sliceCSV, curCSV bytes.Buffer
	if err := CSV(&sliceCSV, es); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CSVCursor(&curCSV, &sliceCursor{es: es}, batch); err != nil {
		t.Fatal(err)
	}
	if sliceCSV.String() != curCSV.String() {
		t.Fatalf("CSVCursor output differs:\n%s\nvs\n%s", curCSV.String(), sliceCSV.String())
	}
	// Category 255 is past the atrace table: it exports as "unknown".
	if want := csvReference(t, es); curCSV.String() != want || !strings.Contains(want, ",unknown,") {
		t.Fatalf("CSVCursor output differs from encoding/csv:\n%s\nvs\n%s", curCSV.String(), want)
	}

	var sliceTxt, curTxt bytes.Buffer
	if err := Text(&sliceTxt, es); err != nil {
		t.Fatal(err)
	}
	if _, _, err := TextCursor(&curTxt, &sliceCursor{es: es}, batch); err != nil {
		t.Fatal(err)
	}
	if sliceTxt.String() != curTxt.String() {
		t.Fatal("TextCursor output differs from Text")
	}

	var sliceChrome, chrome bytes.Buffer
	if err := ChromeTrace(&sliceChrome, es); err != nil {
		t.Fatal(err)
	}
	events, _, err := ChromeTraceCursor(&chrome, &sliceCursor{es: es}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if events != len(es) {
		t.Fatalf("ChromeTraceCursor wrote %d events, want %d", events, len(es))
	}
	out := chrome.String()
	if out != sliceChrome.String() {
		t.Fatalf("ChromeTraceCursor output differs:\n%s\nvs\n%s", out, sliceChrome.String())
	}
	if !strings.HasPrefix(out, `{"traceEvents":[`) || !strings.Contains(out, `"event-count":5`) {
		t.Fatalf("unexpected Chrome JSON: %s", out)
	}
	// Must be valid JSON even when the batch boundary falls mid-array, and
	// carry one array element per event.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("ChromeTraceCursor emitted invalid JSON: %v\n%s", err, out)
	}
	if len(doc.TraceEvents) != len(es) {
		t.Fatalf("Chrome JSON has %d events, want %d", len(doc.TraceEvents), len(es))
	}
}

// FuzzStreamRoundTrip: arbitrary entries survive encode→decode
// byte-for-byte through the streaming pair.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3), uint32(4), uint8(5), uint8(6), []byte("payload"))
	f.Add(uint64(0), uint64(0), uint8(0), uint32(0), uint8(0), uint8(0), []byte{})
	f.Add(^uint64(0), ^uint64(0), uint8(255), uint32(0xFFFFFF), uint8(255), uint8(255),
		bytes.Repeat([]byte{1}, 1024))
	f.Fuzz(func(t *testing.T, stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte) {
		if len(payload) > tracer.MaxPayload {
			payload = payload[:tracer.MaxPayload]
		}
		in := tracer.Entry{
			Stamp: stamp, TS: ts, Core: core, TID: tid & 0xFFFFFF,
			Category: cat, Level: level, Payload: payload,
		}
		var wire bytes.Buffer
		if err := NewEncoder(&wire).Encode(&in); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		dec := NewDecoder(bytes.NewReader(wire.Bytes()))
		var out tracer.Entry
		if err := dec.Next(&out); err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !entriesEqual(in, out) {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}
		// Re-encoding the decoded entry must be byte-identical.
		var wire2 bytes.Buffer
		if err := NewEncoder(&wire2).Encode(&out); err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(wire.Bytes(), wire2.Bytes()) {
			t.Fatal("re-encoded bytes differ")
		}
		if err := dec.Next(&out); err != io.EOF {
			t.Fatalf("trailing: %v", err)
		}
	})
}

// FuzzDecoderArbitraryBytes: the decoder must terminate with a clean
// error (never panic, never allocate unboundedly) on arbitrary input.
func FuzzDecoderArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	es := sampleEntries()
	var wire bytes.Buffer
	_ = NewEncoder(&wire).EncodeBatch(es[:2])
	f.Add(wire.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		var e tracer.Entry
		for i := 0; i < 1<<16; i++ {
			if err := dec.Next(&e); err != nil {
				return // any terminating error is acceptable
			}
		}
		t.Fatal("decoder did not terminate")
	})
}
