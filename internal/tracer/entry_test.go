package tracer

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindEvent:       "event",
		KindDummy:       "dummy",
		KindBlockHeader: "header",
		KindSkip:        "skip",
		KindInvalid:     "invalid",
		Kind(200):       "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestEventWireSizePadding(t *testing.T) {
	for payload, want := range map[int]int{
		0:  EventHeaderSize,
		1:  EventHeaderSize + 8,
		7:  EventHeaderSize + 8,
		8:  EventHeaderSize + 8,
		9:  EventHeaderSize + 16,
		64: EventHeaderSize + 64,
	} {
		if got := EventWireSize(payload); got != want {
			t.Errorf("EventWireSize(%d) = %d, want %d", payload, got, want)
		}
		e := Entry{Payload: make([]byte, payload)}
		if got := e.WireSize(); got != want {
			t.Errorf("Entry{%d}.WireSize() = %d, want %d", payload, got, want)
		}
	}
}

func TestEncodeDecodeEventRoundTrip(t *testing.T) {
	e := &Entry{
		Stamp:    0xDEADBEEF01234567,
		TS:       987654321,
		Core:     11,
		TID:      1<<24 - 1,
		Category: 7,
		Level:    3,
		Payload:  []byte("hello btrace"),
	}
	buf := make([]byte, e.WireSize())
	n, err := EncodeEvent(buf, e)
	if err != nil {
		t.Fatalf("EncodeEvent: %v", err)
	}
	if n != e.WireSize() {
		t.Fatalf("EncodeEvent wrote %d, want %d", n, e.WireSize())
	}
	rec, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if rec.Kind != KindEvent || rec.Size != n {
		t.Fatalf("decoded kind=%v size=%d, want event/%d", rec.Kind, rec.Size, n)
	}
	got := rec.Event
	if got.Stamp != e.Stamp || got.TS != e.TS || got.Core != e.Core ||
		got.TID != e.TID || got.Category != e.Category || got.Level != e.Level {
		t.Fatalf("decoded header %+v, want %+v", got, *e)
	}
	if !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("decoded payload %q, want %q", got.Payload, e.Payload)
	}
}

func TestEncodeEventEmptyPayload(t *testing.T) {
	e := &Entry{Stamp: 1}
	buf := make([]byte, EventHeaderSize)
	if _, err := EncodeEvent(buf, e); err != nil {
		t.Fatalf("EncodeEvent: %v", err)
	}
	rec, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if rec.Event.Payload != nil {
		t.Fatalf("expected nil payload, got %v", rec.Event.Payload)
	}
}

func TestEncodeEventErrors(t *testing.T) {
	e := &Entry{Payload: make([]byte, MaxPayload+1)}
	if _, err := EncodeEvent(make([]byte, 1<<20), e); err == nil {
		t.Error("oversized payload: expected error")
	}
	small := &Entry{Payload: []byte("xx")}
	if _, err := EncodeEvent(make([]byte, 8), small); err == nil {
		t.Error("short destination: expected error")
	}
}

func TestEncodeDummyAndDecode(t *testing.T) {
	buf := make([]byte, 64)
	if n := EncodeDummy(buf, 64); n != 64 {
		t.Fatalf("EncodeDummy = %d, want 64", n)
	}
	rec, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if rec.Kind != KindDummy || rec.Size != 64 {
		t.Fatalf("got %v/%d, want dummy/64", rec.Kind, rec.Size)
	}
}

func TestEncodeBlockHeaderAndSkip(t *testing.T) {
	buf := make([]byte, BlockHeaderSize)
	EncodeBlockHeader(buf, 42)
	rec, err := DecodeRecord(buf)
	if err != nil || rec.Kind != KindBlockHeader || rec.Pos != 42 {
		t.Fatalf("header: rec=%+v err=%v", rec, err)
	}
	EncodeSkip(buf, 99)
	rec, err = DecodeRecord(buf)
	if err != nil || rec.Kind != KindSkip || rec.Pos != 99 {
		t.Fatalf("skip: rec=%+v err=%v", rec, err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 4),  // short
		make([]byte, 16), // zeroed (kind invalid)
		{0x09, 0, 0, 0, 0, 0, 0, byte(KindDummy)}, // size 9 not aligned
	}
	for i, src := range cases {
		if _, err := DecodeRecord(src); err == nil {
			t.Errorf("case %d: expected corrupt error", i)
		}
	}
	// Size exceeding the buffer.
	big := make([]byte, 16)
	le64put(big, packWord0(KindDummy, 1024))
	if _, err := DecodeRecord(big); err == nil {
		t.Error("oversize record: expected error")
	}
}

func TestDecodeAllSequence(t *testing.T) {
	buf := make([]byte, 256)
	off := EncodeBlockHeader(buf, 7)
	e := &Entry{Stamp: 1, Payload: []byte("abc")}
	n, err := EncodeEvent(buf[off:], e)
	if err != nil {
		t.Fatal(err)
	}
	off += n
	off += EncodeDummy(buf[off:], 32)
	recs, truncated := DecodeAll(buf[:off])
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Kind != KindBlockHeader || recs[1].Kind != KindEvent || recs[2].Kind != KindDummy {
		t.Fatalf("unexpected kinds: %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	// A trailing zeroed region truncates.
	recs, truncated = DecodeAll(buf[:off+16])
	if !truncated || len(recs) != 3 {
		t.Fatalf("zero tail: truncated=%v len=%d", truncated, len(recs))
	}
}

func TestDecodeAllEmpty(t *testing.T) {
	recs, truncated := DecodeAll(nil)
	if len(recs) != 0 || truncated {
		t.Fatalf("nil: recs=%d truncated=%v", len(recs), truncated)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payloadLen uint16) bool {
		plen := int(payloadLen) % 512
		payload := make([]byte, plen)
		rand.New(rand.NewSource(int64(stamp))).Read(payload)
		e := &Entry{
			Stamp: stamp, TS: ts, Core: core, TID: tid & 0xFFFFFF,
			Category: cat, Level: level, Payload: payload,
		}
		buf := make([]byte, e.WireSize())
		if _, err := EncodeEvent(buf, e); err != nil {
			return false
		}
		rec, err := DecodeRecord(buf)
		if err != nil || rec.Kind != KindEvent {
			return false
		}
		g := rec.Event
		if plen == 0 {
			return g.Stamp == e.Stamp && g.TS == e.TS && g.Core == e.Core &&
				g.TID == e.TID && g.Category == e.Category && g.Level == e.Level && g.Payload == nil
		}
		return g.Stamp == e.Stamp && g.TS == e.TS && g.Core == e.Core &&
			g.TID == e.TID && g.Category == e.Category && g.Level == e.Level &&
			bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWord0Quick(t *testing.T) {
	f := func(k uint8, size uint32) bool {
		kind := Kind(k % 5)
		gk, gs := unpackWord0(packWord0(kind, int(size)))
		return gk == kind && gs == int(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedProc(t *testing.T) {
	p := &FixedProc{CoreID: 3, TID: 9}
	if p.Core() != 3 || p.Thread() != 9 {
		t.Fatalf("FixedProc fields: core=%d tid=%d", p.Core(), p.Thread())
	}
	p.MaybePreempt(PreemptBeforeCopy) // must not block
	restore := p.DisablePreemption()
	restore()
}

func TestRegistry(t *testing.T) {
	names := Names()
	found := false
	for _, n := range names {
		if n == "btrace" {
			found = true
		}
	}
	_ = found // btrace registers from internal/core's init; only linked in its own tests
	if _, err := New("no-such-tracer", 1<<20, 4, 16); err == nil {
		t.Fatal("unknown tracer: expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register: expected panic")
		}
	}()
	Register("dup-test", func(int, int, int) (Tracer, error) { return nil, nil })
	Register("dup-test", func(int, int, int) (Tracer, error) { return nil, nil })
}

func TestStatsString(t *testing.T) {
	s := Stats{Writes: 7, Dropped: 2, SkippedBlocks: 1}
	out := s.String()
	for _, frag := range []string{"writes=7", "dropped=2", "skipped=1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Stats.String() = %q missing %q", out, frag)
		}
	}
}

// TestDecodeEventsNoAlloc: decoding into a slice with room allocates
// nothing — payloads alias the source — and structural records are
// skipped.
func TestDecodeEventsNoAlloc(t *testing.T) {
	src := ingestBody(t)
	dst := make([]Entry, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		es, truncated := DecodeEvents(dst[:0], src)
		if truncated || len(es) != 256 {
			t.Fatalf("decoded %d events (truncated=%v), want 256", len(es), truncated)
		}
	}); allocs != 0 {
		t.Errorf("DecodeEvents: %v allocs/op, want 0", allocs)
	}
}

// ingestBody is an /ingest request body: a block header, 256 events
// with payloads of 0 to 63 bytes, and a dummy record.
func ingestBody(tb testing.TB) []byte {
	src := make([]byte, 0, 64<<10)
	rec := make([]byte, EventWireSize(64))
	src = append(src, rec[:EncodeBlockHeader(rec, 1)]...)
	for i := 0; i < 256; i++ {
		n, err := EncodeEvent(rec, &Entry{Stamp: uint64(i + 1), TID: uint32(i % 8), Payload: rec[:i%64]})
		if err != nil {
			tb.Fatal(err)
		}
		src = append(src, rec[:n]...)
	}
	return append(src, rec[:EncodeDummy(rec, 24)]...)
}

// BenchmarkDecodeEvents times the /ingest decode: one 256-event body
// decoded into a reused slice, as the server decodes a pooled body into
// a pooled batch. It must allocate nothing.
func BenchmarkDecodeEvents(b *testing.B) {
	src := ingestBody(b)
	dst := make([]Entry, 0, 256)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es, truncated := DecodeEvents(dst[:0], src); truncated || len(es) != 256 {
			b.Fatalf("decoded %d events (truncated=%v), want 256", len(es), truncated)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/256, "ns/event")
}
