// Cold tier: a cold file (col-%08d.blk) is a frozen, compressed copy of
// one or more sealed row segments. This file holds what the block
// formats share — the file header, the directory scan, reading and
// inflating one checksummed DEFLATE stream — plus the read side of v1,
// the frame-preserving format: each v1 block's payload decompresses to
// exactly the CRC-framed records the row segments held, so the scan's
// frame walk, checksum verification and decode run unchanged over
// inflated bytes. The freeze path writes columnar v3 blocks (coldv2.go);
// v1 and v2 are read-only, pinned by the directories in
// testdata/cold-v1 and testdata/cold-v2. A file may hold blocks of any
// mix of versions: the per-block magic is what versions a block.
//
//	offset 0    file header (88 bytes, same layout as a segment header
//	            but coldMagic; always written sealed — cold files only
//	            ever appear whole, committed by rename)
//	offset 88   block*  where block = 96-byte block header ++ compressed
//	            payload (DEFLATE)
//
// Each block header carries the block's own min/max stamp, min/max TS
// and core/category bitmaps, so queries prune whole blocks — and skip
// their decompression — from the directory alone.

package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

const (
	// coldMagic identifies a cold block file (and its format version).
	coldMagic = 0x6274636f6c3031 // "btcol01"
	// blockMagic marks every block header.
	blockMagic = 0x6274626c6b3031 // "btblk01"
	// blockHeaderSize is the fixed per-block header length.
	blockHeaderSize = 96
	// defaultColdBlockBytes is the raw-bytes-per-block target when
	// Config.ColdBlockBytes is zero.
	defaultColdBlockBytes = 256 << 10
)

// coldBlock is one block's directory entry: where its compressed
// payload lives and what it can contain.
type coldBlock struct {
	off     int64  // file offset of the compressed bytes (columnar: meta section)
	compLen int64  // total compressed length (columnar: meta + payload sections)
	rawLen  int64  // decompressed frame bytes (columnar: frame-equivalent accounting)
	crc     uint32 // v1 only: crc32c of the compressed payload
	meta    segmentMeta
	v2      *blockV2 // the columnar formats' (v2, v3) extension; nil for v1 blocks
}

// decodeBlockHeader parses and validates one v1 block header. Layout:
//
//	[0:8)   blockMagic
//	[8:16)  compLen     [16:24) rawLen
//	[24:32) count
//	[32:40) baseStamp   [40:48) maxStamp
//	[48:56) minTS       [56:64) maxTS
//	[64:72) coreBits    [72:80) catBits
//	[80:88) flags (bit 1 = ordered, matching the segment header)
//	[88:96) crc32c of [0:88) in the low 32 bits, crc32c of the
//	        compressed payload in the high 32 bits
func decodeBlockHeader(src []byte) (b coldBlock, err error) {
	if len(src) < blockHeaderSize {
		return b, fmt.Errorf("store: short block header (%d bytes)", len(src))
	}
	if le64(src[0:]) != blockMagic {
		return b, fmt.Errorf("store: bad block magic %#x", le64(src[0:]))
	}
	w := le64(src[88:])
	if uint32(w) != crc32.Checksum(src[:88], castagnoli) {
		return b, fmt.Errorf("store: block header checksum mismatch")
	}
	b.compLen = int64(le64(src[8:]))
	b.rawLen = int64(le64(src[16:]))
	b.crc = uint32(w >> 32)
	b.meta.count = le64(src[24:])
	b.meta.baseStamp = le64(src[32:])
	b.meta.maxStamp = le64(src[40:])
	b.meta.minTS = le64(src[48:])
	b.meta.maxTS = le64(src[56:])
	b.meta.coreBits = le64(src[64:])
	b.meta.catBits = le64(src[72:])
	b.meta.ordered = le64(src[80:])&2 != 0
	return b, nil
}

// scanColdFile walks the block directory of a committed cold file,
// filling s.blocks and rebuilding s.meta/rawSize from the block
// headers. A cold file is only ever committed whole (tmp → sync →
// rename), so a block that fails to validate marks the end of the
// trustworthy prefix: the scan keeps what validated and reports how
// many trailing bytes it ignored (bitrot containment, not crash
// recovery).
func scanColdFile(f backend.ReadFile, size int64, s *segment) (ignored int64, err error) {
	hdr := make([]byte, blockHeaderV2Size)
	s.meta = segmentMeta{}
	s.blocks = nil
	s.rawSize = headerSize
	off := int64(headerSize)
	for off+blockHeaderSize <= size {
		// A v1 block near EOF may leave fewer than blockHeaderV2Size
		// bytes; read what is there and let the magic pick the decoder.
		want := hdr
		if size-off < blockHeaderV2Size {
			want = hdr[:size-off]
		}
		if _, rerr := f.ReadAt(want, off); rerr != nil {
			return size - off, nil
		}
		var b coldBlock
		var hdrLen int64
		if m := le64(want[0:]); m == blockMagic2 || m == blockMagic3 {
			b2, berr := decodeBlockHeaderV2(want)
			if berr != nil {
				return size - off, nil
			}
			b, hdrLen = b2, blockHeaderV2Size
		} else {
			b1, berr := decodeBlockHeader(want)
			if berr != nil {
				return size - off, nil
			}
			b, hdrLen = b1, blockHeaderSize
		}
		if off+hdrLen+b.compLen > size {
			return size - off, nil
		}
		b.off = off + hdrLen
		s.blocks = append(s.blocks, b)
		mergeMeta(&s.meta, &b.meta)
		s.rawSize += b.rawLen
		off += hdrLen + b.compLen
	}
	return size - off, nil
}

// inflater is a DEFLATE decompressor with the reader it is fed from.
// They are recycled across blocks, queries and cursors: Reset avoids the
// allocation-heavy NewReader per stream, and a v3 block is one stream
// per payload chunk.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any { return &inflater{fr: flate.NewReader(nil)} }}

// compBufs recycles the buffers compressed bytes are read into. They die
// at the end of the inflate that reads them, whatever becomes of its
// output.
var compBufs = sync.Pool{New: func() any { return new([]byte) }}

// readComp reads the n compressed bytes at off into a pooled buffer.
// The caller hands the buffer back with compBufs.Put once it has
// inflated them.
func readComp(f io.ReaderAt, off, n int64) (*[]byte, error) {
	buf := compBufs.Get().(*[]byte)
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := f.ReadAt(*buf, off); err != nil {
		compBufs.Put(buf)
		return nil, err
	}
	return buf, nil
}

// inflate checksums one DEFLATE stream (a v1 block, a meta section, a
// payload chunk) and decompresses it into a buffer of its own, rawLen
// bytes long — a length the caller has validated. The compressed bytes
// are checksummed before inflating, so corrupt input never reaches the
// decompressor, and pruned blocks, skipped sections and skipped chunks
// pay for neither.
func inflate(comp []byte, rawLen int64, crc uint32) ([]byte, error) {
	if crc32.Checksum(comp, castagnoli) != crc {
		return nil, fmt.Errorf("%w: cold section checksum mismatch", tracer.ErrCorrupt)
	}
	// A fresh destination every time: it becomes an immutable cached
	// copy (or dies young when the cache is off or lost the race).
	dst := make([]byte, rawLen)
	in := inflaters.Get().(*inflater)
	in.src.Reset(comp)
	defer func() {
		in.src.Reset(nil) // comp goes back to a pool of its own
		inflaters.Put(in)
	}()
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(in.fr, dst); err != nil {
		return nil, fmt.Errorf("%w: cold section inflate: %v", tracer.ErrCorrupt, err)
	}
	return dst, nil
}

// readInflate is readComp then inflate, for a stream read on its own.
func readInflate(f io.ReaderAt, off, compLen, rawLen int64, crc uint32) ([]byte, error) {
	comp, err := readComp(f, off, compLen)
	if err != nil {
		return nil, err
	}
	defer compBufs.Put(comp)
	return inflate(*comp, rawLen, crc)
}
