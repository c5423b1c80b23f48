// Package tracer defines the abstractions shared by every tracer in this
// repository: the wire format of trace entries, the Tracer interface that
// BTrace and all baseline tracers implement, the Proc execution-context
// abstraction that lets a simulated scheduler inject preemption at the
// points where real mobile systems preempt trace writers, and a registry
// used by the benchmark harness.
//
// The wire format is deliberately simple and 8-byte aligned so that every
// tracer (global-buffer, per-core, per-thread and block-based) can share
// one encoder/decoder and the analysis pipeline can compare readouts
// byte-for-byte.
package tracer

import (
	"errors"
	"fmt"
)

// Kind discriminates records in a trace buffer.
type Kind uint8

// Record kinds. Only KindEvent carries workload data; the others are
// structural records written by tracers to keep blocks parseable.
const (
	// KindInvalid marks an unparseable or zeroed region.
	KindInvalid Kind = iota
	// KindEvent is a workload trace event.
	KindEvent
	// KindDummy is filler written to close the unusable tail of a block.
	KindDummy
	// KindBlockHeader is the first record of a (re)initialized data block.
	KindBlockHeader
	// KindSkip marks a data block sacrificed by the skipping mechanism.
	KindSkip
)

// String returns the short human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindDummy:
		return "dummy"
	case KindBlockHeader:
		return "header"
	case KindSkip:
		return "skip"
	default:
		return "invalid"
	}
}

// Wire-format constants. Every record is a multiple of Align bytes. An
// event record is EventHeaderSize bytes of header followed by the payload
// padded up to Align.
const (
	// Align is the alignment (and minimum size) of every record.
	Align = 8
	// EventHeaderSize is the fixed header size of a KindEvent record.
	EventHeaderSize = 32
	// BlockHeaderSize is the size of KindBlockHeader and KindSkip records.
	BlockHeaderSize = 16
	// MaxPayload is the maximum payload length of a single event.
	MaxPayload = 1<<16 - 1
)

// Entry is the decoded form of a trace event. The analysis pipeline
// identifies entries by Stamp, a globally unique, monotonically increasing
// logic stamp assigned at write time (§5 "Replaying setup" of the paper).
type Entry struct {
	// Stamp is the global logic stamp (unique, monotonically increasing).
	Stamp uint64
	// TS is the virtual timestamp in nanoseconds.
	TS uint64
	// Core is the virtual core the producing thread ran on.
	Core uint8
	// TID identifies the producing thread within the workload.
	TID uint32
	// Cat is the trace category (see internal/workload for the atrace set).
	Category uint8
	// Level is the trace detail level (1..3, §2.2 of the paper).
	Level uint8
	// Payload is the event body. May be nil; only its length matters to
	// the size accounting.
	Payload []byte
}

// WireSize returns the encoded size in bytes of e, padded to Align.
func (e *Entry) WireSize() int {
	return EventHeaderSize + (len(e.Payload)+Align-1)/Align*Align
}

// EventWireSize returns the encoded size of an event with a payload of
// payloadLen bytes.
func EventWireSize(payloadLen int) int {
	return EventHeaderSize + (payloadLen+Align-1)/Align*Align
}

// lengthOnly backs every payload LengthOnly hands out. Nobody writes it.
var lengthOnly [MaxPayload]byte

// LengthOnly returns a payload that has an event's length and none of
// its bytes: n <= MaxPayload bytes of one shared read-only buffer, nil
// for n == 0. A reader that was asked for payload lengths alone fills
// Entry.Payload with it, so len, WireSize and every exporter that
// prints sizes stay correct without the event body being read, copied
// or kept alive. The contents are unspecified and must not be written.
func LengthOnly(n int) []byte {
	if n == 0 {
		return nil
	}
	return lengthOnly[:n:n]
}

// Errors returned by encoding and tracer implementations.
var (
	// ErrTooLarge reports an entry that cannot fit the target buffer or
	// block even after advancing.
	ErrTooLarge = errors.New("tracer: entry too large")
	// ErrCorrupt reports an undecodable record.
	ErrCorrupt = errors.New("tracer: corrupt record")
	// ErrClosed reports a write to a closed tracer.
	ErrClosed = errors.New("tracer: closed")
	// ErrDropped reports that the tracer discarded the entry (drop-newest
	// tracers such as the LTTng baseline do this by design).
	ErrDropped = errors.New("tracer: entry dropped")
)

// word0 packs kind and record size:
//
//	bits 56..63  kind
//	bits  0..31  record size in bytes (including word0)
func packWord0(k Kind, size int) uint64 {
	return uint64(k)<<56 | uint64(uint32(size))
}

func unpackWord0(w uint64) (Kind, int) {
	return Kind(w >> 56), int(uint32(w))
}

// word3 of an event packs identity fields and the exact payload length:
//
//	bits 56..63  core
//	bits 32..55  tid (24 bits)
//	bits 24..31  cat
//	bits 16..23  level
//	bits  0..15  payload length
func packWord3(core uint8, tid uint32, cat, level uint8, payloadLen int) uint64 {
	return uint64(core)<<56 | uint64(tid&0xFFFFFF)<<32 | uint64(cat)<<24 |
		uint64(level)<<16 | uint64(uint16(payloadLen))
}

func unpackWord3(w uint64) (core uint8, tid uint32, cat, level uint8, payloadLen int) {
	return uint8(w >> 56), uint32(w>>32) & 0xFFFFFF, uint8(w >> 24), uint8(w >> 16),
		int(uint16(w))
}

// le stores/loads 64-bit words without importing encoding/binary in the
// hot path (the compiler lowers these to single MOVs on little-endian
// machines).
func le64put(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// EncodeEvent writes e into dst, which must be at least e.WireSize() bytes.
// It returns the number of bytes written.
func EncodeEvent(dst []byte, e *Entry) (int, error) {
	if len(e.Payload) > MaxPayload {
		return 0, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(e.Payload))
	}
	size := e.WireSize()
	if len(dst) < size {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrTooLarge, size, len(dst))
	}
	le64put(dst[0:], packWord0(KindEvent, size))
	le64put(dst[8:], e.Stamp)
	le64put(dst[16:], e.TS)
	le64put(dst[24:], packWord3(e.Core, e.TID, e.Category, e.Level, len(e.Payload)))
	copy(dst[EventHeaderSize:], e.Payload)
	// Zero the padding so decodes are deterministic.
	for i := EventHeaderSize + len(e.Payload); i < size; i++ {
		dst[i] = 0
	}
	return size, nil
}

// EncodeDummy writes a dummy record of exactly size bytes (size must be a
// positive multiple of Align).
func EncodeDummy(dst []byte, size int) int {
	le64put(dst[0:], packWord0(KindDummy, size))
	return size
}

// EncodeBlockHeader writes a block header recording the block's global
// position pos.
func EncodeBlockHeader(dst []byte, pos uint64) int {
	le64put(dst[0:], packWord0(KindBlockHeader, BlockHeaderSize))
	le64put(dst[8:], pos)
	return BlockHeaderSize
}

// EncodeSkip writes a skip marker recording the sacrificed global position.
func EncodeSkip(dst []byte, pos uint64) int {
	le64put(dst[0:], packWord0(KindSkip, BlockHeaderSize))
	le64put(dst[8:], pos)
	return BlockHeaderSize
}

// Record is the decoded form of any record in a buffer.
type Record struct {
	Kind Kind
	Size int
	// Pos is the global block position for header/skip records.
	Pos uint64
	// Event holds the decoded entry for KindEvent records.
	Event Entry
}

// PeekRecord reports the kind and total size of the record starting at
// src without decoding its body; src must hold at least the first Align
// bytes. Streaming decoders use it to learn how many bytes to read
// before handing the full record to DecodeRecord.
func PeekRecord(src []byte) (Kind, int, error) {
	if len(src) < Align {
		return KindInvalid, 0, fmt.Errorf("%w: short buffer (%d bytes)", ErrCorrupt, len(src))
	}
	k, size := unpackWord0(le64(src))
	if size < Align || size%Align != 0 {
		return KindInvalid, 0, fmt.Errorf("%w: kind %v size %d", ErrCorrupt, k, size)
	}
	return k, size, nil
}

// DecodeRecord decodes the record at the start of src. It returns the
// record and its size. A zeroed or malformed region decodes as
// (KindInvalid, ErrCorrupt).
func DecodeRecord(src []byte) (Record, error) {
	if len(src) < Align {
		return Record{}, fmt.Errorf("%w: short buffer (%d bytes)", ErrCorrupt, len(src))
	}
	k, size := unpackWord0(le64(src))
	if size < Align || size%Align != 0 || size > len(src) {
		return Record{}, fmt.Errorf("%w: kind %v size %d of %d", ErrCorrupt, k, size, len(src))
	}
	r := Record{Kind: k, Size: size}
	switch k {
	case KindDummy:
		return r, nil
	case KindBlockHeader, KindSkip:
		if size < BlockHeaderSize {
			return Record{}, fmt.Errorf("%w: short header", ErrCorrupt)
		}
		r.Pos = le64(src[8:])
		return r, nil
	case KindEvent:
		if size < EventHeaderSize {
			return Record{}, fmt.Errorf("%w: short event", ErrCorrupt)
		}
		r.Event.Stamp = le64(src[8:])
		r.Event.TS = le64(src[16:])
		w3 := le64(src[24:])
		var plen int
		r.Event.Core, r.Event.TID, r.Event.Category, r.Event.Level, plen = unpackWord3(w3)
		if EventHeaderSize+plen > size {
			return Record{}, fmt.Errorf("%w: payload length %d exceeds record size %d", ErrCorrupt, plen, size)
		}
		if plen > 0 {
			r.Event.Payload = src[EventHeaderSize : EventHeaderSize+plen]
		}
		return r, nil
	default:
		return Record{}, fmt.Errorf("%w: kind byte %d", ErrCorrupt, uint8(k))
	}
}

// DecodeAll decodes consecutive records from a fully written region,
// returning all of them. Decoding stops at the first corrupt record, which
// is reported via the truncated flag rather than an error: tracers use this
// to salvage the parseable prefix of a block whose tail was being written
// when the block was closed.
func DecodeAll(src []byte) (recs []Record, truncated bool) {
	for len(src) >= Align {
		r, err := DecodeRecord(src)
		if err != nil {
			return recs, true
		}
		recs = append(recs, r)
		src = src[r.Size:]
	}
	return recs, len(src) != 0
}

// DecodeEvents is DecodeAll for consumers that want only the events:
// it appends the KindEvent records of src to dst, skipping structural
// records, with the same truncated verdict. Payloads alias src, so with
// a dst that has room it allocates nothing — the server ingest path
// decodes a pooled body into a pooled slice with it.
func DecodeEvents(dst []Entry, src []byte) (es []Entry, truncated bool) {
	for len(src) >= Align {
		r, err := DecodeRecord(src)
		if err != nil {
			return dst, true
		}
		if r.Kind == KindEvent {
			dst = append(dst, r.Event)
		}
		src = src[r.Size:]
	}
	return dst, len(src) != 0
}
