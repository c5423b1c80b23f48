package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"btrace/internal/tracer"
)

// TestEventRecordDecoders pins what each reader of an event record
// accepts, over hand-built records: tracer.DecodeRecord and
// tracer.DecodeEvents (the /ingest decode) take any record whose
// payload fits its size, a padded one included, while the store's frame
// walk holds a record to exactly the size tracer.EncodeEvent writes and
// refuses anything else with ErrCorrupt — a stored frame is always one
// the store encoded itself.
func TestEventRecordDecoders(t *testing.T) {
	want := tracer.Entry{Stamp: 7, TS: 7000, Core: 3, TID: 0xABCDEF, Category: 9, Level: 2, Payload: []byte("hello")}
	exact := make([]byte, want.WireSize())
	if _, err := tracer.EncodeEvent(exact, &want); err != nil {
		t.Fatal(err)
	}
	// withWord0 and withPlen rewrite the size/kind word and the payload
	// length of a copy of rec.
	withWord0 := func(rec []byte, k tracer.Kind, size int) []byte {
		out := append([]byte(nil), rec...)
		le64put(out, uint64(k)<<56|uint64(size))
		return out
	}
	withPlen := func(rec []byte, plen int) []byte {
		out := append([]byte(nil), rec...)
		le64put(out[24:], le64(out[24:])&^0xFFFF|uint64(plen))
		return out
	}
	padded := withWord0(append(append([]byte(nil), exact...), make([]byte, tracer.Align)...), tracer.KindEvent, len(exact)+tracer.Align)

	for _, tc := range []struct {
		name      string
		rec       []byte
		recordOK  bool // DecodeRecord returns no error
		event     bool // ... and the record is want
		events    int  // DecodeEvents' count
		truncated bool // ... and its verdict
		storeOK   bool // the frame walk reads want
	}{
		{"exact size", exact, true, true, 1, false, true},
		{"padded past EventWireSize", padded, true, true, 1, false, false},
		{"payload length past the record", withPlen(exact, tracer.Align+1), false, false, 0, true, false},
		{"too short", withWord0(exact[:24], tracer.KindEvent, 24), false, false, 0, true, false},
		{"structural kind", withWord0(exact, tracer.KindDummy, len(exact)), true, false, 0, false, false},
		{"invalid kind", withWord0(exact, tracer.KindInvalid, len(exact)), false, false, 0, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tracer.DecodeRecord(tc.rec)
			if (err == nil) != tc.recordOK || (err != nil && !errors.Is(err, tracer.ErrCorrupt)) {
				t.Errorf("DecodeRecord: err = %v, want ok %v", err, tc.recordOK)
			}
			if got := err == nil && r.Kind == tracer.KindEvent && sameEntry(&r.Event, &want, false); got != tc.event {
				t.Errorf("DecodeRecord: %+v, want the event %v", r, tc.event)
			}
			es, trunc := tracer.DecodeEvents(nil, tc.rec)
			if len(es) != tc.events || trunc != tc.truncated {
				t.Errorf("DecodeEvents: %d events, truncated %v; want %d, %v", len(es), trunc, tc.events, tc.truncated)
			}
			for i := range es {
				if !sameEntry(&es[i], &want, false) {
					t.Errorf("DecodeEvents: %+v, want %+v", es[i], want)
				}
			}

			frame := append(append([]byte(nil), tc.rec...), make([]byte, tailSize)...)
			le64put(frame[len(tc.rec):], uint64(frameMagic)<<32|uint64(crc32.Checksum(tc.rec, castagnoli)))
			for _, lengths := range []bool{false, true} {
				ck := &pchunk{lengths: lengths}
				s := &segScan{q: compile(Query{}), sn: &segSnap{}}
				used, err := s.frames(frame, ck)
				if tc.storeOK {
					if err != nil || used != len(frame) || len(ck.entries) != 1 || !sameEntry(&ck.entries[0], &want, lengths) {
						t.Errorf("frames (lengths %v): used %d, %d rows, err %v; want the one row", lengths, used, len(ck.entries), err)
					}
				} else if !errors.Is(err, tracer.ErrCorrupt) || len(ck.entries) != 0 {
					t.Errorf("frames (lengths %v): %d rows, err = %v, want ErrCorrupt", lengths, len(ck.entries), err)
				}
			}
		})
	}
}

// TestEncodeOverwritesStaleBuffer: Encode grows its buffer without
// clearing it, so every byte of a frame must be written by the encode
// itself. Over a pooled Batch whose spare capacity is poisoned with
// 0xFF, every frame equals a record encoded into zeroed memory plus its
// tail: padding zero, CRC valid, payload lengths 0 through 2*Align+1 so
// every padding width occurs, and an unframeable row leaves no bytes.
func TestEncodeOverwritesStaleBuffer(t *testing.T) {
	var es []tracer.Entry
	for plen := 0; plen <= 2*tracer.Align+1; plen++ {
		payload := make([]byte, plen)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		s := uint64(len(es) + 1)
		es = append(es, tracer.Entry{Stamp: s, TS: s * 1000, Core: 2, TID: 40 + uint32(plen), Category: 3, Level: 1, Payload: payload})
	}
	// An oversized payload, mid-batch: Encode leaves it out.
	es = append(es[:5], append([]tracer.Entry{{Stamp: 99, Payload: make([]byte, tracer.MaxPayload+1)}}, es[5:]...)...)

	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	for pass := 0; pass < 2; pass++ { // the second pass reuses the first's buffer
		spare := b.buf[:cap(b.buf)]
		for i := range spare {
			spare[i] = 0xFF
		}
		if err := b.Encode(es); err == nil {
			t.Fatal("Encode framed an oversized payload")
		}
		var want []byte
		for i := range es {
			if i == 5 {
				if b.Framed(i) {
					t.Fatal("oversized row framed")
				}
				continue
			}
			rec := make([]byte, es[i].WireSize())
			if _, err := tracer.EncodeEvent(rec, &es[i]); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
			want = binary.LittleEndian.AppendUint64(want, uint64(frameMagic)<<32|uint64(crc32.Checksum(rec, castagnoli)))
			m := b.metas[i]
			frame := b.buf[m.off : m.off+int(m.size)]
			if err := checkFrame(frame[:len(frame)-tailSize], frame[len(frame)-tailSize:]); err != nil {
				t.Fatalf("pass %d row %d: %v", pass, i, err)
			}
		}
		if string(b.buf) != string(want) {
			t.Fatalf("pass %d: the batch's frames differ from records encoded into zeroed memory", pass)
		}
	}
}
