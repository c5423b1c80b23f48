// Columnar cold blocks (formats v2 and v3). A columnar block re-encodes
// its events by column instead of preserving row frames:
//
//	offset 0    200-byte block header: per-column min/max (stamp, time,
//	            core/category bitmaps, TID range), a 512-bit TID bloom
//	            filter, section lengths and checksums
//	offset 200  meta section  (DEFLATE): every non-payload column —
//	            zigzag-varint delta stamps and timestamps, raw core and
//	            level bytes, dictionary-coded categories, varint TIDs,
//	            varint payload lengths — and, in v3, the payload chunk
//	            directory
//	            payload section: the payloads concatenated in row order,
//	            cut into chunks of payChunkRows rows, each chunk a DEFLATE
//	            stream of its own with a checksum of its own (v2: the
//	            whole section is one stream)
//
// The split is the point: predicates over header fields decide from the
// block header alone (no I/O past the directory scan), then from the
// meta section, one column at a time — the byte-wide columns in place,
// a varint column decoded only for a query that names it — and only the
// rows that survive pay for payload bytes, a chunk at a time: a query
// inflates the chunks its selected rows live in and no other. A query
// that matches nothing in a block never inflates either section; a
// metadata-only query (or aggregate) never inflates a payload byte.
//
// The chunk directory — compressed length and crc32c per chunk — is the
// last column of the meta section, not part of the header: every block
// that survives the block rung has its meta section inflated,
// checksummed, validated and cached before anybody asks for a payload
// byte, so the directory costs no read of its own, is as trustworthy as
// the columns, and leaves the header at its fixed 200 bytes (6 B per
// 128 rows would not fit a fixed header for every ColdBlockBytes). A
// chunk's raw length needs no entry: it is the sum of its rows' payload
// lengths, a column the meta section already holds.
//
// The freeze path emits v3. v2 blocks (testdata/cold-v2) and v1 blocks
// remain fully readable; a v2 block is read through the chunk path as a
// block of one chunk spanning all its rows.
package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"

	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

const (
	// blockMagic2 and blockMagic3 mark a columnar block header, v2 and v3.
	blockMagic2 = 0x6274626c6b3032 // "btblk02"
	blockMagic3 = 0x6274626c6b3033 // "btblk03"
	// blockHeaderV2Size is the fixed columnar block header length.
	blockHeaderV2Size = 200
	// bloomBytes is the TID bloom filter size (512 bits, k=4 — ~1% false
	// positives at the ~50 distinct TIDs a 256 KiB block typically holds).
	bloomBytes = 64
	bloomBits  = bloomBytes * 8
	bloomK     = 4
	// payChunkRows is the rows per payload chunk the writer cuts (the
	// header records it; a reader never assumes it). Sized on the
	// benchmark's cold tier — 268 blocks of 2 934 rows, 38.8 MB of
	// payload, `tid == T && category == 11`, one row in ~900 selected:
	//
	//	rows/chunk   compressed    payload bytes inflated
	//	whole        13.98 MB      99.2 %
	//	256          13.87 MB      26.9 %
	//	128          14.02 MB      14.6 %
	//	64           14.40 MB       7.7 %
	//	32           15.13 MB       3.9 %
	//
	// Below 128 the chunks start costing disk (each stream restarts its
	// dictionary); above it they stop saving inflate.
	payChunkRows = 128
)

// blockV2 is the columnar extension of a coldBlock directory entry.
type blockV2 struct {
	version    int   // 2 or 3
	metaLen    int64 // compressed meta-section length
	metaRawLen int64
	payLen     int64 // compressed payload-section length, all chunks (0 = no payloads)
	payRawLen  int64
	metaCRC    uint32 // crc32c of the compressed meta section
	payCRC     uint32 // v2: crc32c of the one payload stream; v3: unused (0)
	// chunkRows is the rows per payload chunk: the header's in v3; in v2
	// the block's row count, which makes its one stream chunk 0.
	chunkRows int
	minTID    uint32
	maxTID    uint32
	dictSize  int
	bloom     [bloomBytes]byte
}

// bloomHash derives the two double-hashing streams for a TID
// (splitmix64 finalizer; h2 forced odd so the k probes stay distinct).
func bloomHash(tid uint32) (h1, h2 uint64) {
	x := uint64(tid) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x, (x >> 33) | 1
}

func bloomAdd(b *[bloomBytes]byte, tid uint32) {
	h1, h2 := bloomHash(tid)
	for i := uint64(0); i < bloomK; i++ {
		bit := (h1 + i*h2) % bloomBits
		b[bit>>3] |= 1 << (bit & 7)
	}
}

// MayContainTID is the bloom probe: false is a proof of absence. (It is
// btql.Meta's TIDs.)
func (v *blockV2) MayContainTID(tid uint32) bool {
	h1, h2 := bloomHash(tid)
	for i := uint64(0); i < bloomK; i++ {
		bit := (h1 + i*h2) % bloomBits
		if v.bloom[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// payChunks is the number of chunks the payload section is cut into.
func (v *blockV2) payChunks(count uint64) int {
	if v.payLen == 0 {
		return 0
	}
	return int((count + uint64(v.chunkRows) - 1) / uint64(v.chunkRows))
}

// bloomFill returns the filter's set-bit ratio (inspect tooling).
func (v *blockV2) bloomFill() float64 {
	set := 0
	for _, b := range v.bloom {
		set += bits.OnesCount8(b)
	}
	return float64(set) / bloomBits
}

// encodeBlockHeaderV2 renders a columnar block header (the writer's:
// v3). Layout, shared by v2 and v3:
//
//	[0:8)     blockMagic2 | blockMagic3
//	[8:16)    count
//	[16:24)   frame-equivalent raw bytes (accounting parity with v1 rawLen)
//	[24:32)   metaLen      [32:40)  metaRawLen
//	[40:48)   payLen       [48:56)  payRawLen
//	[56:64)   baseStamp    [64:72)  maxStamp
//	[72:80)   minTS        [80:88)  maxTS
//	[88:96)   coreBits     [96:104) catBits
//	[104:112) minTID | maxTID<<32
//	[112:120) flags (bit 1 = ordered, like v1; bits 16..31 = dictSize;
//	          bits 32..47 = rows per payload chunk, v3 only)
//	[120:184) TID bloom (64 bytes)
//	[184:192) metaCRC | payCRC<<32 (checksums of the compressed meta
//	          section and, in v2, of the payload section; a v3 payload
//	          chunk's checksum is in the chunk directory)
//	[192:200) crc32c of [0:192) in the low 32 bits
func encodeBlockHeaderV2(dst []byte, b *coldBlock) {
	v := b.v2
	le64put(dst[0:], blockMagic3)
	le64put(dst[8:], b.meta.count)
	le64put(dst[16:], uint64(b.rawLen))
	le64put(dst[24:], uint64(v.metaLen))
	le64put(dst[32:], uint64(v.metaRawLen))
	le64put(dst[40:], uint64(v.payLen))
	le64put(dst[48:], uint64(v.payRawLen))
	le64put(dst[56:], b.meta.baseStamp)
	le64put(dst[64:], b.meta.maxStamp)
	le64put(dst[72:], b.meta.minTS)
	le64put(dst[80:], b.meta.maxTS)
	le64put(dst[88:], b.meta.coreBits)
	le64put(dst[96:], b.meta.catBits)
	le64put(dst[104:], uint64(v.minTID)|uint64(v.maxTID)<<32)
	var flags uint64
	if b.meta.ordered {
		flags |= 2
	}
	flags |= uint64(uint16(v.dictSize)) << 16
	flags |= uint64(uint16(v.chunkRows)) << 32
	le64put(dst[112:], flags)
	copy(dst[120:184], v.bloom[:])
	le64put(dst[184:], uint64(v.metaCRC)|uint64(v.payCRC)<<32)
	le64put(dst[192:], uint64(crc32.Checksum(dst[:192], castagnoli)))
}

// decodeBlockHeaderV2 parses and validates a columnar block header, v2
// or v3. Note the header checksum covers the header only: section
// corruption is caught by the per-section and per-chunk CRCs at inflate
// time, never earlier — that is what lets a pruned block skip its bytes
// entirely.
func decodeBlockHeaderV2(src []byte) (b coldBlock, err error) {
	if len(src) < blockHeaderV2Size {
		return b, fmt.Errorf("store: short columnar block header (%d bytes)", len(src))
	}
	v := &blockV2{version: 2}
	switch le64(src[0:]) {
	case blockMagic2:
	case blockMagic3:
		v.version = 3
	default:
		return b, fmt.Errorf("store: bad columnar block magic %#x", le64(src[0:]))
	}
	if uint32(le64(src[192:])) != crc32.Checksum(src[:192], castagnoli) {
		return b, fmt.Errorf("store: columnar block header checksum mismatch")
	}
	b.meta.count = le64(src[8:])
	b.rawLen = int64(le64(src[16:]))
	v.metaLen = int64(le64(src[24:]))
	v.metaRawLen = int64(le64(src[32:]))
	v.payLen = int64(le64(src[40:]))
	v.payRawLen = int64(le64(src[48:]))
	b.meta.baseStamp = le64(src[56:])
	b.meta.maxStamp = le64(src[64:])
	b.meta.minTS = le64(src[72:])
	b.meta.maxTS = le64(src[80:])
	b.meta.coreBits = le64(src[88:])
	b.meta.catBits = le64(src[96:])
	tidw := le64(src[104:])
	v.minTID, v.maxTID = uint32(tidw), uint32(tidw>>32)
	flags := le64(src[112:])
	b.meta.ordered = flags&2 != 0
	v.dictSize = int(uint16(flags >> 16))
	v.chunkRows = int(uint16(flags >> 32))
	copy(v.bloom[:], src[120:184])
	w := le64(src[184:])
	v.metaCRC, v.payCRC = uint32(w), uint32(w>>32)
	b.compLen = v.metaLen + v.payLen
	// Structural sanity: a zero-count or section-free block is never
	// written, and every row costs at least a frame header of raw bytes
	// and one meta byte — reject before any allocation is sized off the
	// claimed lengths.
	if b.meta.count == 0 || v.metaLen <= 0 || v.metaRawLen <= 0 ||
		v.payLen < 0 || v.payRawLen < 0 ||
		(v.payLen == 0) != (v.payRawLen == 0) ||
		b.rawLen < int64(b.meta.count)*int64(tracer.EventHeaderSize+tailSize) ||
		v.metaRawLen > b.rawLen ||
		v.payRawLen > b.rawLen ||
		v.payLen > math.MaxUint32 || v.payRawLen > math.MaxUint32 || // payload offsets are 32-bit
		v.dictSize > 256 ||
		(v.version == 3) != (v.chunkRows > 0) {
		return b, fmt.Errorf("store: implausible columnar block geometry")
	}
	if v.version == 2 {
		v.chunkRows = int(b.meta.count) // fits: count*40 <= rawLen
	}
	b.v2 = v
	return b, nil
}

// metaSec is a columnar block's inflated meta section, validated once
// and then read in place. The byte-wide columns are sub-slices of raw;
// the varint columns are located (each starts where the previous one was
// found to end) but not decoded: the scan decodes one on the first
// query that reads it and caches it as an entry of its own
// (blockcache.go). The payload chunk directory is small and read by
// every payload fetch, so it is decoded here. A metaSec is immutable
// once parseMeta returns it.
type metaSec struct {
	raw []byte
	// cores, catIdx and levels hold one byte per row; catIdx[i] indexes
	// dict, the block's category dictionary.
	cores, catIdx, levels, dict []uint8
	// Offsets into raw of the varint columns after the stamps, which
	// start at 0.
	tsOff, tidOff, plenOff int
	// The payload chunk directory, as prefix sums: chunk k is compressed
	// bytes [chunkOff[k], chunkOff[k+1]) of the payload section, checksum
	// chunkCRC[k], and inflates to bytes [chunkRaw[k], chunkRaw[k+1]) of
	// the concatenated payloads — those of rows [k*chunkRows,
	// (k+1)*chunkRows). A chunk whose rows carry no payload is empty on
	// both sides. v2's one stream is the one chunk of its directory.
	chunkOff, chunkRaw, chunkCRC []uint32
}

// parseMeta validates an inflated meta section against its block header
// and locates its columns. Everything a later decode relies on is
// checked here: each column holds exactly the header's count of
// well-formed values, category indices fall inside the dictionary, TIDs
// fit 32 bits, payload lengths are legal and sum to the payload
// section's size, the chunk directory has one entry per chunk whose
// lengths sum to the payload section's compressed size and are zero
// exactly where the chunk's rows have no payload, and nothing trails
// the last column. Any metaSec this returns, and so any cached one, can
// be decoded — and its chunks' buffers sized — without a further check.
func parseMeta(raw []byte, b *coldBlock) (*metaSec, error) {
	v, count := b.v2, int(b.meta.count)
	m := &metaSec{raw: raw}
	pos := 0
	fail := func(col string) error {
		return fmt.Errorf("%w: cold meta column %s truncated", tracer.ErrCorrupt, col)
	}
	// varints steps over count varints no larger than max and returns
	// their sum.
	varints := func(max uint64) (sum uint64, ok bool) {
		for i := 0; i < count; i++ {
			u, n := binary.Uvarint(raw[pos:])
			if n <= 0 || u > max {
				return 0, false
			}
			pos += n
			sum += u
		}
		return sum, true
	}
	// column steps over an n-byte column.
	column := func(n int) []uint8 {
		if n > len(raw)-pos {
			return nil
		}
		pos += n
		return raw[pos-n : pos : pos]
	}
	// Stamps and timestamps are zigzag deltas: any 64-bit value is legal.
	if _, ok := varints(^uint64(0)); !ok {
		return nil, fail("stamp")
	}
	m.tsOff = pos
	if _, ok := varints(^uint64(0)); !ok {
		return nil, fail("time")
	}
	if m.cores = column(count); m.cores == nil {
		return nil, fail("core")
	}
	// Categories: the dictionary values, then one index byte per row.
	if m.dict = column(v.dictSize); m.dict == nil && v.dictSize > 0 {
		return nil, fail("category dictionary")
	}
	if m.catIdx = column(count); m.catIdx == nil {
		return nil, fail("category")
	}
	for _, idx := range m.catIdx {
		if int(idx) >= len(m.dict) {
			return nil, fmt.Errorf("%w: cold category index %d outside dictionary of %d", tracer.ErrCorrupt, idx, len(m.dict))
		}
	}
	m.tidOff = pos
	if _, ok := varints(uint64(^uint32(0))); !ok {
		return nil, fail("tid")
	}
	if m.levels = column(count); m.levels == nil {
		return nil, fail("level")
	}
	m.plenOff = pos
	payTotal, ok := varints(tracer.MaxPayload)
	if !ok {
		return nil, fail("payload length")
	}
	if payTotal != uint64(v.payRawLen) {
		return nil, fmt.Errorf("%w: cold payload lengths sum to %d, header says %d", tracer.ErrCorrupt, payTotal, v.payRawLen)
	}
	if err := m.parseChunks(raw[pos:], b); err != nil {
		return nil, err
	}
	return m, nil
}

// parseChunks validates and decodes the payload chunk directory, the
// tail of a v3 meta section: one varint compressed length per chunk,
// then one little-endian crc32c per chunk. A v2 meta section ends with
// the payload lengths; its directory is the header's one stream.
func (m *metaSec) parseChunks(dir []byte, b *coldBlock) error {
	v := b.v2
	n := v.payChunks(b.meta.count)
	if v.version == 2 {
		if len(dir) != 0 {
			return fmt.Errorf("%w: cold meta section has %d trailing bytes", tracer.ErrCorrupt, len(dir))
		}
		if n == 1 {
			m.chunkOff, m.chunkCRC = []uint32{0, uint32(v.payLen)}, []uint32{v.payCRC}
			m.chunkRaw = []uint32{0, uint32(v.payRawLen)}
		}
		return nil
	}
	// Nothing is sized off n before the directory is known to hold n
	// entries of at least five bytes each.
	if n > len(dir)/5 {
		return fmt.Errorf("%w: cold chunk directory truncated", tracer.ErrCorrupt)
	}
	m.chunkOff, m.chunkRaw, m.chunkCRC = make([]uint32, n+1), make([]uint32, n+1), make([]uint32, n)
	pos := 0
	var packed uint64 // payLen fits 32 bits (decodeBlockHeaderV2), and so each prefix
	for k := 0; k < n; k++ {
		u, w := binary.Uvarint(dir[pos:])
		if packed += u; w <= 0 || packed > uint64(v.payLen) {
			return fmt.Errorf("%w: cold chunk directory overruns the payload section", tracer.ErrCorrupt)
		}
		pos += w
		m.chunkOff[k+1] = uint32(packed)
	}
	if len(dir)-pos != 4*n {
		return fmt.Errorf("%w: cold meta section has %d trailing bytes", tracer.ErrCorrupt, len(dir)-pos-4*n)
	}
	if packed != uint64(v.payLen) {
		return fmt.Errorf("%w: cold chunk lengths sum to %d, header says %d", tracer.ErrCorrupt, packed, v.payLen)
	}
	// A chunk's raw length is its rows' payload lengths, validated above.
	plens := m.raw[m.plenOff:]
	row, ppos := 0, 0
	for k := 0; k < n; k++ {
		m.chunkCRC[k] = binary.LittleEndian.Uint32(dir[pos+4*k:])
		var sum uint32
		for end := min(row+v.chunkRows, m.rows()); row < end; row++ {
			u, w := binary.Uvarint(plens[ppos:])
			ppos += w
			sum += uint32(u)
		}
		m.chunkRaw[k+1] = m.chunkRaw[k] + sum
		if packed := m.chunkOff[k+1] - m.chunkOff[k]; (packed == 0) != (sum == 0) {
			return fmt.Errorf("%w: cold chunk %d packs %d payload bytes into %d", tracer.ErrCorrupt, k, sum, packed)
		}
	}
	return nil
}

// rows is the block's row count.
func (m *metaSec) rows() int { return len(m.cores) }

// stamps decodes the stamp column: zigzag deltas anchored at the block
// header's base, so the first value costs as little as any other.
func (m *metaSec) stamps(b *coldBlock) []uint64 {
	return decodeDeltas(m.raw, int64(b.meta.baseStamp), m.rows())
}

// times decodes the timestamp column, anchored at the header's minTS.
func (m *metaSec) times(b *coldBlock) []uint64 {
	return decodeDeltas(m.raw[m.tsOff:], int64(b.meta.minTS), m.rows())
}

func decodeDeltas(src []byte, prev int64, count int) []uint64 {
	dst := make([]uint64, count)
	pos := 0
	for i := range dst {
		d, n := binary.Varint(src[pos:])
		pos += n
		prev += d
		dst[i] = uint64(prev)
	}
	return dst
}

// tids decodes the TID column.
func (m *metaSec) tids() []uint32 {
	dst := make([]uint32, m.rows())
	pos := m.tidOff
	for i := range dst {
		u, n := binary.Uvarint(m.raw[pos:])
		pos += n
		dst[i] = uint32(u)
	}
	return dst
}

// payOffsets decodes the payload-length column into its prefix sum:
// row i's payload is bytes [off[i], off[i+1]) of the payload section.
func (m *metaSec) payOffsets() []uint32 {
	dst := make([]uint32, m.rows()+1)
	pos := m.plenOff
	var total uint32
	for i := range dst[1:] {
		u, n := binary.Uvarint(m.raw[pos:])
		pos += n
		total += uint32(u)
		dst[i+1] = total
	}
	return dst
}

// colBlock is the writer's pending rows, one slice per column.
type colBlock struct {
	stamps []uint64
	ts     []uint64
	cores  []uint8
	cats   []uint8
	tids   []uint32
	levels []uint8
	plens  []uint32
}

// coldWriterV2 streams decoded events into a columnar (v3) cold file
// under construction: rows accumulate as columns and are compressed and
// flushed as one block each time their frame-equivalent raw size
// reaches blockBytes (the sizing rule v1 files were written under, so
// ColdBlockBytes means the same thing in every format).
//
// A Store keeps one writer for all its freeze runs (they are serialized
// by freezeMu) and begin points it at the next file: the column,
// payload, meta, chunk-directory, compressed-section and header buffers
// keep the capacity earlier blocks grew them to. Nothing a buffer held survives
// into the next block's bytes, so what is written is the same whether
// the buffers are fresh or reused.
type coldWriterV2 struct {
	f          backend.File
	off        int64
	blockBytes int

	cols     colBlock // pending rows
	pay      []byte
	frameRaw int64 // frame-equivalent raw bytes pending

	blockMeta      segmentMeta
	minTID, maxTID uint32
	bloom          [bloomBytes]byte

	scratch []byte       // meta-section encode buffer
	comp    bytes.Buffer // the compressed meta section
	payComp bytes.Buffer // the compressed payload chunks, back to back
	// The pending block's chunk directory: compressed length and crc32c
	// per chunk.
	chunkLens, chunkCRCs []uint32
	hdr                  [blockHeaderV2Size]byte
	blocks               []coldBlock // handed to the committed segment, so not reused
	fileMeta             segmentMeta
	rawTotal             int64
}

// begin starts a new cold file on f, discarding whatever an aborted run
// left pending.
func (w *coldWriterV2) begin(f backend.File, blockBytes int) {
	if blockBytes <= 0 {
		blockBytes = defaultColdBlockBytes
	}
	w.f, w.off, w.blockBytes = f, headerSize, blockBytes
	w.blocks, w.fileMeta, w.rawTotal = nil, segmentMeta{}, 0
	w.resetBlock()
}

// add appends one event: its fields feed the columns (the payload bytes
// are copied, so e may alias a transient read buffer), and its
// row-tier frame size the raw-size accounting.
func (w *coldWriterV2) add(e *tracer.Entry) error {
	if w.blockMeta.count == 0 {
		w.minTID, w.maxTID = e.TID, e.TID
	} else {
		if e.TID < w.minTID {
			w.minTID = e.TID
		}
		if e.TID > w.maxTID {
			w.maxTID = e.TID
		}
	}
	w.blockMeta.observe(e.Stamp, e.TS, e.Core, e.Category)
	bloomAdd(&w.bloom, e.TID)
	w.cols.stamps = append(w.cols.stamps, e.Stamp)
	w.cols.ts = append(w.cols.ts, e.TS)
	w.cols.cores = append(w.cols.cores, e.Core)
	w.cols.cats = append(w.cols.cats, e.Category)
	w.cols.tids = append(w.cols.tids, e.TID)
	w.cols.levels = append(w.cols.levels, e.Level)
	w.cols.plens = append(w.cols.plens, uint32(len(e.Payload)))
	w.pay = append(w.pay, e.Payload...)
	w.frameRaw += int64(FrameSize(e))
	if w.frameRaw >= int64(w.blockBytes) {
		return w.flush()
	}
	return nil
}

// encodeMeta renders the pending columns and the chunk directory into
// the meta-section layout parseMeta validates.
func (w *coldWriterV2) encodeMeta() (dictSize int) {
	buf := w.scratch[:0]
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(w.blockMeta.baseStamp)
	for _, s := range w.cols.stamps {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], int64(s)-prev)]...)
		prev = int64(s)
	}
	prev = int64(w.blockMeta.minTS)
	for _, t := range w.cols.ts {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], int64(t)-prev)]...)
		prev = int64(t)
	}
	buf = append(buf, w.cols.cores...)
	// Category dictionary, values in first-appearance order.
	var dictIdx [256]int16
	for i := range dictIdx {
		dictIdx[i] = -1
	}
	var dictBuf [256]uint8
	dict := dictBuf[:0]
	for _, cat := range w.cols.cats {
		if dictIdx[cat] < 0 {
			dictIdx[cat] = int16(len(dict))
			dict = append(dict, cat)
		}
	}
	buf = append(buf, dict...)
	for _, cat := range w.cols.cats {
		buf = append(buf, uint8(dictIdx[cat]))
	}
	for _, tid := range w.cols.tids {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(tid))]...)
	}
	buf = append(buf, w.cols.levels...)
	for _, pl := range w.cols.plens {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(pl))]...)
	}
	for _, cl := range w.chunkLens {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(cl))]...)
	}
	for _, crc := range w.chunkCRCs {
		buf = binary.LittleEndian.AppendUint32(buf, crc)
	}
	w.scratch = buf
	return len(dict)
}

// flateWriters recycles DEFLATE compressors across blocks, freeze runs
// and stores, as inflaters does for the read side: a flate.Writer is
// over a megabyte of tables that NewWriter allocates and zeroes, and a
// block is one stream per payload chunk plus one. Reset restores
// exactly the state NewWriter builds, so a stream compresses to the
// same bytes through either. The pool holds as many writers as freezes
// run at once — one per store with a cold tier — and the GC empties it
// when none does.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed) // errs only on a bad level
	return fw
}}

// deflate appends src to dst as one DEFLATE stream.
func deflate(fw *flate.Writer, dst *bytes.Buffer, src []byte) error {
	fw.Reset(dst)
	if _, err := fw.Write(src); err != nil {
		return err
	}
	return fw.Close()
}

// compress fills w.payComp and the chunk directory from the pending
// payloads — chunks of payChunkRows rows, a chunk without a payload
// byte an empty entry — and then, the directory being part of it,
// w.comp from the pending meta columns.
func (w *coldWriterV2) compress() (dictSize int, err error) {
	fw := flateWriters.Get().(*flate.Writer)
	// The compressor goes back pointing at nothing: the pool outlives the
	// store w sits in.
	defer func() { fw.Reset(nil); flateWriters.Put(fw) }()
	w.payComp.Reset()
	w.chunkLens, w.chunkCRCs = w.chunkLens[:0], w.chunkCRCs[:0]
	if len(w.pay) > 0 {
		plens, pay := w.cols.plens, w.pay
		for len(plens) > 0 {
			rows := min(payChunkRows, len(plens))
			raw := 0
			for _, pl := range plens[:rows] {
				raw += int(pl)
			}
			start := w.payComp.Len()
			if raw > 0 {
				if err := deflate(fw, &w.payComp, pay[:raw]); err != nil {
					return 0, err
				}
			}
			packed := w.payComp.Bytes()[start:]
			w.chunkLens = append(w.chunkLens, uint32(len(packed)))
			w.chunkCRCs = append(w.chunkCRCs, crc32.Checksum(packed, castagnoli))
			plens, pay = plens[rows:], pay[raw:]
		}
	}
	dictSize = w.encodeMeta()
	w.comp.Reset()
	return dictSize, deflate(fw, &w.comp, w.scratch)
}

// flush compresses and writes the pending block: meta section, payload
// chunks, then the header in front of them.
func (w *coldWriterV2) flush() error {
	if w.blockMeta.count == 0 {
		return nil
	}
	dictSize, err := w.compress()
	if err != nil {
		return err
	}
	metaOff := w.off + blockHeaderV2Size
	v := &blockV2{
		version:    3,
		metaLen:    int64(w.comp.Len()),
		metaRawLen: int64(len(w.scratch)),
		payLen:     int64(w.payComp.Len()),
		payRawLen:  int64(len(w.pay)),
		metaCRC:    crc32.Checksum(w.comp.Bytes(), castagnoli),
		chunkRows:  payChunkRows,
		minTID:     w.minTID,
		maxTID:     w.maxTID,
		dictSize:   dictSize,
		bloom:      w.bloom,
	}
	if _, err := w.f.WriteAt(w.comp.Bytes(), metaOff); err != nil {
		return err
	}
	if v.payLen > 0 {
		if _, err := w.f.WriteAt(w.payComp.Bytes(), metaOff+v.metaLen); err != nil {
			return err
		}
	}
	b := coldBlock{
		off:     metaOff,
		compLen: v.metaLen + v.payLen,
		rawLen:  w.frameRaw,
		meta:    w.blockMeta,
		v2:      v,
	}
	encodeBlockHeaderV2(w.hdr[:], &b)
	if _, err := w.f.WriteAt(w.hdr[:], w.off); err != nil {
		return err
	}
	w.off = metaOff + b.compLen
	w.blocks = append(w.blocks, b)
	mergeMeta(&w.fileMeta, &w.blockMeta)
	w.rawTotal += w.frameRaw
	w.resetBlock()
	return nil
}

// resetBlock empties the pending block, keeping its buffers.
func (w *coldWriterV2) resetBlock() {
	w.cols.stamps = w.cols.stamps[:0]
	w.cols.ts = w.cols.ts[:0]
	w.cols.cores = w.cols.cores[:0]
	w.cols.cats = w.cols.cats[:0]
	w.cols.tids = w.cols.tids[:0]
	w.cols.levels = w.cols.levels[:0]
	w.cols.plens = w.cols.plens[:0]
	w.pay = w.pay[:0]
	w.frameRaw = 0
	w.blockMeta = segmentMeta{}
	w.minTID, w.maxTID = 0, 0
	w.bloom = [bloomBytes]byte{}
}

// finish flushes the last block, writes the sealed file header (shared
// by every format — the per-block magic is what versions a block),
// syncs and seals. The caller renames the file in afterwards.
func (w *coldWriterV2) finish(coversThrough uint64) error {
	if err := w.flush(); err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	encodeHeaderMagic(hdr, coldMagic, &w.fileMeta, coversThrough, true)
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Seal()
}

func (w *coldWriterV2) result() (segmentMeta, []coldBlock, int64) {
	return w.fileMeta, w.blocks, w.rawTotal
}
