// Segment file format and recovery. A segment is an append-only file of
// CRC-framed wire records:
//
//	offset 0    header (88 bytes, rewritten in place when the segment seals)
//	offset 88   frame*   where frame = wire record ++ 8-byte tail
//
// The wire record is exactly the repository's record format
// (tracer.EncodeEvent), and exactly the size EncodeEvent gives its
// payload length; the tail packs crc32c(record) in its low 32 bits and
// a frame magic in its high 32 bits, keeping every frame a multiple of
// tracer.Align bytes. The tail is what makes crash recovery exact: a
// torn append fails either the magic or the checksum, and recovery —
// the store's one frame walker (scan.go) stepped over every frame into
// a recoverySink — truncates the file at the first frame that does,
// never mid-record, never past a whole one. A read error is not a torn
// frame: it fails Open, and nothing is truncated.

package store

import (
	"fmt"
	"hash/crc32"
	"slices"

	"btrace/internal/tracer"
)

const (
	// segMagic identifies a segment file (and its format version).
	segMagic = 0x62747365673032 // "btseg02"
	// frameMagic marks the high half of every frame tail.
	frameMagic = 0xb7f2a3c4
	// headerSize is the fixed on-disk header length.
	headerSize = 88
	// tailSize is the per-frame CRC tail length.
	tailSize = 8
	// indexStride is the sparse-index granularity: one entry every
	// indexStride frames.
	indexStride = 64
)

// castagnoli is the CRC-32C table shared by all frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordSize bounds a frame's claimed record size, mirroring the
// streaming decoder's cap: a corrupt size word must not drive an
// unbounded read.
var maxRecordSize = tracer.EventWireSize(tracer.MaxPayload)

// FrameSize returns the on-disk size of a frame holding e.
func FrameSize(e *tracer.Entry) int { return e.WireSize() + tailSize }

// segmentMeta is the queryable summary of one segment, maintained
// incrementally on append and rebuilt by scanning on open.
type segmentMeta struct {
	baseStamp uint64 // first record's stamp (0 while empty)
	maxStamp  uint64
	minTS     uint64
	maxTS     uint64
	coreBits  uint64 // bit min(core,63) set per record
	catBits   uint64 // bit min(category,63) set per record
	count     uint64
	// ordered reports that stamps were non-decreasing in append order;
	// sparse-index seeks are only valid when it holds.
	ordered bool
}

// observe folds one record into the summary: the one metadata rule of
// the append path, the cold writer and recovery.
func (m *segmentMeta) observe(stamp, ts uint64, core, cat uint8) {
	if m.count == 0 {
		m.baseStamp, m.maxStamp = stamp, stamp
		m.minTS, m.maxTS = ts, ts
		m.ordered = true
	} else {
		if stamp < m.maxStamp {
			m.ordered = false
		}
		if stamp > m.maxStamp {
			m.maxStamp = stamp
		}
		if stamp < m.baseStamp {
			m.baseStamp = stamp
		}
		if ts < m.minTS {
			m.minTS = ts
		}
		if ts > m.maxTS {
			m.maxTS = ts
		}
	}
	m.coreBits |= 1 << min(uint(core), 63)
	m.catBits |= 1 << min(uint(cat), 63)
	m.count++
}

// mergeMeta folds src into dst (append order: dst precedes src).
func mergeMeta(dst, src *segmentMeta) {
	if src.count == 0 {
		return
	}
	if dst.count == 0 {
		*dst = *src
		return
	}
	// Ordered survives only if the concatenation stays non-decreasing.
	dst.ordered = dst.ordered && src.ordered && src.baseStamp >= dst.maxStamp
	if src.baseStamp < dst.baseStamp {
		dst.baseStamp = src.baseStamp
	}
	if src.maxStamp > dst.maxStamp {
		dst.maxStamp = src.maxStamp
	}
	if src.minTS < dst.minTS {
		dst.minTS = src.minTS
	}
	if src.maxTS > dst.maxTS {
		dst.maxTS = src.maxTS
	}
	dst.coreBits |= src.coreBits
	dst.catBits |= src.catBits
	dst.count += src.count
}

// indexEntry maps a stamp to the file offset of its frame.
type indexEntry struct {
	stamp uint64
	off   int64
}

// Tier is a segment's place in the hot → cold lifecycle.
type Tier uint8

const (
	// TierHot is a row segment (possibly still active).
	TierHot Tier = iota
	// TierCold is a compressed block file produced by freezing row
	// segments (see cold.go).
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	}
	return "unknown"
}

// segment is one backend file plus its in-memory metadata. Sealed
// segments keep no open file; readers open their own handles.
type segment struct {
	seq  uint64
	name string // backend file name (seg-%08d.seg or col-%08d.blk)
	// coversThrough is the highest source seq this segment subsumes: its
	// own seq for a row segment, the last frozen source's seq for a cold
	// file. (Earlier versions also merged row segments, so a row segment
	// may cover past its seq too.) Recovery deletes any later file it
	// covers as a leftover of an interrupted transition.
	coversThrough uint64
	size          int64 // committed backend bytes (compressed size for cold)
	// rawSize is the uncompressed equivalent (header + frame bytes);
	// equals size for row tiers.
	rawSize int64
	tier    Tier
	sealed  bool
	meta    segmentMeta
	// sparse holds one entry per indexStride frames (first frame
	// included), used to seek stamp-range queries when meta.ordered.
	// Row tiers only.
	sparse []indexEntry
	// blocks is the cold tier's block directory (immutable once built);
	// nil for row tiers.
	blocks []coldBlock
}

func (s *segment) isCold() bool { return s.tier == TierCold }

// le64 helpers (the header is little-endian like the wire format).
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

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

// encodeHeader renders the segment header. Layout:
//
//	[0:8)   segMagic
//	[8:16)  baseStamp   [16:24) maxStamp
//	[24:32) minTS       [32:40) maxTS
//	[40:48) coreBits    [48:56) catBits
//	[56:64) count
//	[64:72) coversThrough (highest source seq this file subsumes: a
//	        row segment's own seq; a cold file's last frozen source)
//	[72:80) flags (bit 0 = sealed, bit 1 = ordered)
//	[80:88) crc32c of [0:80) in the low 32 bits
//
// coversThrough is what makes interrupted-freeze recovery precise: the
// cold file explicitly names the source seqs it consumed, so Open
// deletes exactly those if a crash left them behind — never an
// unrelated segment that merely repeats a stamp range. (Row segments
// that earlier versions merged carry a coversThrough past their seq;
// recovery applies the same rule to them.)
func encodeHeader(dst []byte, m *segmentMeta, coversThrough uint64, sealed bool) {
	encodeHeaderMagic(dst, segMagic, m, coversThrough, sealed)
}

// encodeHeaderMagic is encodeHeader for either file kind: segment files
// (segMagic) and cold block files (coldMagic) share the header layout.
func encodeHeaderMagic(dst []byte, magic uint64, m *segmentMeta, coversThrough uint64, sealed bool) {
	le64put(dst[0:], magic)
	le64put(dst[8:], m.baseStamp)
	le64put(dst[16:], m.maxStamp)
	le64put(dst[24:], m.minTS)
	le64put(dst[32:], m.maxTS)
	le64put(dst[40:], m.coreBits)
	le64put(dst[48:], m.catBits)
	le64put(dst[56:], m.count)
	le64put(dst[64:], coversThrough)
	var flags uint64
	if sealed {
		flags |= 1
	}
	if m.ordered {
		flags |= 2
	}
	le64put(dst[72:], flags)
	le64put(dst[80:], uint64(crc32.Checksum(dst[:80], castagnoli)))
}

// decodeHeader parses and validates a segment header, returning the
// seq coverage and sealed flag. A header whose magic or checksum does
// not match is reported as corrupt; the caller falls back to a full
// scan.
func decodeHeader(src []byte) (m segmentMeta, coversThrough uint64, sealed bool, err error) {
	return decodeHeaderMagic(src, segMagic)
}

func decodeHeaderMagic(src []byte, magic uint64) (m segmentMeta, coversThrough uint64, sealed bool, err error) {
	if len(src) < headerSize {
		return m, 0, false, fmt.Errorf("store: short header (%d bytes)", len(src))
	}
	if le64(src[0:]) != magic {
		return m, 0, false, fmt.Errorf("store: bad segment magic %#x", le64(src[0:]))
	}
	if uint32(le64(src[80:])) != crc32.Checksum(src[:80], castagnoli) {
		return m, 0, false, fmt.Errorf("store: header checksum mismatch")
	}
	m.baseStamp = le64(src[8:])
	m.maxStamp = le64(src[16:])
	m.minTS = le64(src[24:])
	m.maxTS = le64(src[32:])
	m.coreBits = le64(src[40:])
	m.catBits = le64(src[48:])
	m.count = le64(src[56:])
	coversThrough = le64(src[64:])
	flags := le64(src[72:])
	m.ordered = flags&2 != 0
	return m, coversThrough, flags&1 != 0, nil
}

// encodeFrame appends the framed encoding of e to dst: the wire record
// followed by the CRC tail. dst grows without being cleared: EncodeEvent
// writes every byte of the record, its padding included, and the tail
// is written last, so whatever the buffer held before is overwritten.
func encodeFrame(dst []byte, e *tracer.Entry) ([]byte, error) {
	size := e.WireSize()
	off := len(dst)
	dst = slices.Grow(dst, size+tailSize)[:off+size+tailSize]
	if _, err := tracer.EncodeEvent(dst[off:off+size], e); err != nil {
		return dst[:off], err
	}
	crc := crc32.Checksum(dst[off:off+size], castagnoli)
	le64put(dst[off+size:], uint64(frameMagic)<<32|uint64(crc))
	return dst, nil
}

// checkFrame validates one complete frame (record ++ tail) in buf.
func checkFrame(rec, tail []byte) error {
	w := le64(tail)
	if uint32(w>>32) != frameMagic {
		return fmt.Errorf("%w: bad frame magic %#x", tracer.ErrCorrupt, uint32(w>>32))
	}
	if uint32(w) != crc32.Checksum(rec, castagnoli) {
		return fmt.Errorf("%w: frame checksum mismatch", tracer.ErrCorrupt)
	}
	return nil
}

// recoverySink is recovery's sink over the walk of every frame of a row
// segment (Store.walk): it folds each row into the segment's metadata
// and sparse index, and keeps off, the end of the last whole, checked
// frame. A row's frame size follows from its payload length, because
// the walk holds every record to tracer.EventWireSize. One sink
// serves every segment Open recovers, so they share its span buffer.
type recoverySink struct {
	s   *segment
	off int64
	buf *pchunk
}

func (*recoverySink) payloads() bool { return false }

func (r *recoverySink) span(n int) []byte { return r.buf.span(n) }

func (r *recoverySink) row(stamp, ts uint64, core uint8, _ uint32, cat, _ uint8, payload []byte) {
	s := r.s
	if s.meta.count%indexStride == 0 {
		s.sparse = append(s.sparse, indexEntry{stamp: stamp, off: r.off})
	}
	s.meta.observe(stamp, ts, core, cat)
	r.off += int64(tracer.EventWireSize(len(payload)) + tailSize)
}

func (*recoverySink) rows(*blockCols, []int32) {} // a row segment has no columnar block
