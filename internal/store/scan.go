// The one scan. This file is the only place on the read path that knows
// how a segment's bytes become rows: the block rung over a cold
// segment's directory, the column walker over a columnar block, the
// frame walker over CRC-framed records (a span of a row segment, or an
// inflated v1 block), and the header walker over a sealed row segment's
// header set. The cursor PCursor and Store.Aggregate are its two
// drivers: each takes segment snapshots (the file rung, matchSegment,
// runs there), opens a segScan per snapshot, and steps it into a
// rowSink — a chunk of entries for the cursor, the aggregators for
// Aggregate. What differs between them is sequencing (stamp merge vs
// fold), never the ladder.
//
// The frame and column walkers differ in when a row comes into being.
// The frame walker meets whole rows, so it tests them one at a time
// (Predicate.MatchHeader on the raw header words). The column walker
// materialises late: it first reduces the block to a selection — the
// predicate evaluated one column at a time (Predicate.Select), each
// leaf touching only the column it names — and only then, and only for
// a non-empty selection, fetches what the sink reads of the selected
// rows: the columns it names and the payload chunks those rows live
// in. A column nobody names is never decoded, a chunk nobody reads
// never inflated, and so neither is ever cached (blockcache.go).
//
// What the sink reads of a payload is the read's projection, and both
// walkers ask it the same question (rowSink.payloads). A sink that
// keeps payload bytes — a cursor feeding a text export or a rebalancing
// copy — gets them: a row of the frame walker aliases the span it was
// found in, a row of the column walker the cached chunk it lives in. A
// sink that does not — the aggregators, and a cursor under
// Query.LengthsOnly, which a CSV or Chrome export sets because it
// prints sizes — gets a payload's length and none of its bytes
// (tracer.LengthOnly): the frame walker takes it from header word 3
// and the column walker's sink from the payload-offset column, so no
// record body is decoded, no chunk read, inflated or cached, and no row
// keeps a span or a chunk alive. Every check stays: the frame checksum
// of each delivered row, the header's payload-length bound, each meta
// section's checksum. Payload bytes are read then only for the
// predicate's sake, and only where the header fields left it unsure.
//
// A cursor that reads lengths only, under a predicate that reads no
// payload byte, needs nothing of a sealed row segment but its frame
// headers, and a sealed segment never changes. So when such a cursor
// would walk one whole, it builds the segment's header set instead and
// the block cache keeps it (blockcache.go, the headers kind): every frame
// checked — tail magic, checksum, record kind and payload-length bound,
// selected or not — and the headers sorted by stamp, stably. From then
// on the header walker reads the set instead of the file: a binary
// search to the query's lowest stamp, MatchHeader per row, a stop past
// its highest, in steps of hdrStepRows rows, already in stamp order.
// There a delivered row's checksum is the one the build checked: the
// contract of the cold tier, whose cache holds values verified once.
package store

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"unsafe"

	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// scanSpanBytes is the read granularity over a row segment: one ReadAt,
// one frame walk. Must exceed maxRecordSize+tailSize so a frame always
// fits a span.
const scanSpanBytes = 256 << 10

// hdrStepRows bounds the header-set rows one step of the header walker
// examines: a span's worth of small records.
const hdrStepRows = 4096

// hdrRow is one frame's header as a header set keeps it: the stamp, the
// time and header word 3 — core, TID, category, level and payload
// length, packed as the record carries them.
type hdrRow struct{ stamp, ts, w3 uint64 }

// splitW3 unpacks header word 3.
func splitW3(w3 uint64) (core uint8, tid uint32, cat, level uint8) {
	return uint8(w3 >> 56), uint32(w3>>32) & 0xFFFFFF, uint8(w3 >> 24), uint8(w3 >> 16)
}

// rowSink consumes the rows a scan selects. It is called only for rows
// that passed the compiled query: the header match and, when the
// predicate has one, the payload test.
type rowSink interface {
	// payloads reports whether the sink keeps payload bytes. For a sink
	// that answers false the scan reads them only when the predicate
	// itself has to: it never decodes a record body nor inflates a
	// payload chunk of a columnar block on the sink's behalf, and what
	// it hands over aliases neither a span nor the block cache.
	payloads() bool
	// span returns an n-byte buffer to read a row segment's next span
	// into. For a sink that keeps payload bytes, the payloads of rows
	// emitted until the next span call alias it, so the sink owns the
	// buffer's lifetime; for one that does not, nothing does.
	span(n int) []byte
	// row takes one row from the frame walker: with the payload's bytes
	// for a sink that keeps them, else with a tracer.LengthOnly payload
	// of the row's length.
	row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte)
	// rows takes the selected rows idx (ascending, non-empty) of a
	// columnar block from the column walker, and reads from c the
	// columns it wants of them — c.payload(i) for a row's payload bytes,
	// which are there for a sink that keeps payloads; one that does not
	// has c.payOffsets() for their lengths.
	rows(c *blockCols, idx []int32)
}

// segSnap is the immutable snapshot of one segment a scan runs against,
// taken under st.mu. A scan only ever touches the snapshot, never the
// live *segment (which the writer goroutine keeps mutating).
type segSnap struct {
	name string
	// start/bound are byte offsets for row segments, block indices for
	// cold ones.
	start     int64 // first byte/block to scan
	bound     int64 // committed bytes / block count at snapshot time
	count     uint64
	baseStamp uint64
	maxStamp  uint64
	// minTS/maxTS is the header's time hull: with the stamps', what a
	// fold asks the query's residual over the segment by (aggregate.go).
	minTS, maxTS uint64
	ordered      bool
	sealed       bool
	cold         bool
	// blocks shares the cold segment's immutable block directory.
	blocks []coldBlock
}

// snapOf captures s for a scan of the stamps from minStamp up. Caller
// holds st.mu.
func snapOf(s *segment, minStamp uint64) segSnap {
	sn := segSnap{
		name:      s.name,
		start:     headerSize,
		bound:     s.size,
		count:     s.meta.count,
		baseStamp: s.meta.baseStamp,
		maxStamp:  s.meta.maxStamp,
		minTS:     s.meta.minTS,
		maxTS:     s.meta.maxTS,
		ordered:   s.meta.ordered,
		sealed:    s.sealed,
	}
	if s.isCold() {
		// The block directory stands in for the sparse index: the block
		// rung vetoes the blocks below the bound.
		sn.cold, sn.start, sn.bound, sn.blocks = true, 0, int64(len(s.blocks)), s.blocks
	} else if s.meta.ordered && minStamp > 0 && len(s.sparse) > 0 {
		// Sparse seek: skip straight to the stamp lower bound.
		lo := sort.Search(len(s.sparse), func(i int) bool { return s.sparse[i].stamp >= minStamp })
		if lo > 0 {
			sn.start = s.sparse[lo-1].off
		}
	}
	return sn
}

// snapshot captures, under st.mu, the segments one pass of q has to
// read, oldest first: the point in time QueryParallel and Aggregate
// answer for. The file rung runs here — a segment whose header metadata
// rules out every record is dropped without its file being opened — so
// the scans that follow never touch live segments.
func (st *Store) snapshot(q *compiled) []segSnap {
	st.mu.Lock()
	defer st.mu.Unlock()
	var snaps []segSnap
	for _, s := range st.segs {
		if q.matchSegment(&s.meta) {
			snaps = append(snaps, snapOf(s, q.minStamp))
		}
	}
	return snaps
}

// segScan is one pass of a compiled query over one segment snapshot.
type segScan struct {
	st *Store
	q  *compiled
	sn *segSnap
	f  backend.ReadFile
	// off is the next unread byte (row segment) or block (cold segment).
	off int64
	// cut reports the ordered early exit: a stamp past MaxStamp was seen
	// in an ordered segment, so nothing later in it can match.
	cut bool
	// The column walker's per-block state, reused from block to block.
	cols       blockCols
	sel        btql.Selection
	idx        []int32
	pay        [][]byte // cols.pay's backing
	need, miss []int32  // payload chunks wanted, and of those not cached
	// The header walker's state (headers): hdrs is the segment's header
	// set once this pass has it, hpos the next row. hk keys the set;
	// build says the next step builds it.
	hk    blockKey
	hdrs  []hdrRow
	hpos  int
	build bool
}

// openScan opens sn's file for one pass of q. A segment that retention
// deleted between snapshot and open is not an error: s is nil and
// missed bounds what the pass lost (the snapshot's event count).
func (st *Store) openScan(q *compiled, sn *segSnap) (s *segScan, missed uint64, err error) {
	f, err := st.be.OpenRead(sn.name)
	if err != nil {
		if backend.IsNotExist(err) {
			return nil, sn.count, nil
		}
		return nil, 0, err
	}
	return &segScan{st: st, q: q, sn: sn, f: f, off: sn.start}, 0, nil
}

// headers readies the header walker, for a cursor pass that reads
// payload lengths only under a predicate that reads no payload byte. It
// applies to a sealed row segment: a resident header set is walked
// instead of the file; otherwise a pass that would walk the segment
// whole — from its first frame to its sealed end, with no ordered cut —
// builds the set (blockcache.go, admission). A set the cache's budget
// could not hold is never built.
func (s *segScan) headers() {
	sn := s.sn
	if !sn.sealed || sn.cold {
		return
	}
	whole := sn.start == headerSize && (!sn.ordered || s.q.maxStamp >= sn.maxStamp) &&
		s.st.bcache.fits(hdrSetSize(int(sn.count)))
	s.hk = blockKey{name: sn.name, off: sn.bound, sec: secHeaders}
	rows, build := s.st.bcache.headerSet(s.hk, whole)
	if rows != nil {
		s.seekHeaders(rows)
	}
	s.build = build
}

// hdrSetSize is a header set's budget charge: its rows and its entry.
func hdrSetSize(rows int) int64 {
	return int64(unsafe.Sizeof(cacheEnt{})) + int64(unsafe.Sizeof(hdrRow{}))*int64(rows)
}

// seekHeaders starts the header walker over rows at the query's lowest
// stamp.
func (s *segScan) seekHeaders(rows []hdrRow) {
	s.hdrs = rows
	s.hpos = sort.Search(len(rows), func(i int) bool { return rows[i].stamp >= s.q.minStamp })
}

// step scans the segment's next unit — one span of a row segment, the
// next rows of its header set, or the next cold block the query cannot
// rule out — into dst. more reports whether another step can make
// progress against sn.bound. A failed step consumes nothing: s.off
// stays put, though dst may hold rows that preceded the failure.
func (s *segScan) step(dst rowSink) (more bool, err error) {
	if s.sn.cold {
		return s.stepBlock(dst)
	}
	if s.build {
		rows, err := s.buildHeaders(dst)
		if err != nil {
			return false, err
		}
		s.build = false
		s.seekHeaders(rows)
	}
	if s.hdrs != nil {
		return s.stepHeaders(dst), nil
	}
	want := s.spanBytes(dst.payloads())
	if want <= 0 {
		return false, nil
	}
	buf := dst.span(int(want))
	n, rerr := s.f.ReadAt(buf, s.off)
	if rerr != nil && rerr != io.EOF {
		return false, rerr
	}
	used, err := s.frames(buf[:n], dst)
	if err != nil {
		return false, err
	}
	s.off += int64(used)
	// used == 0: committed bytes unreadable, or a frame longer than what
	// is committed — the end of the segment as far as this pass can see.
	return used > 0 && !s.cut && s.off < s.sn.bound, nil
}

// buildHeaders is the header walker's first step over a segment it
// would walk whole and has no set of. It reads the sealed extent span by span and checks
// every frame the way the frame walker checks a row it delivers — tail
// magic, checksum, record kind, payload-length bound — whether or not
// the query wants the row, and returns the headers stably sorted by
// stamp. A walk that verified every frame up to the sealed end admits
// them to the block cache; one that fails caches nothing.
func (s *segScan) buildHeaders(dst rowSink) ([]hdrRow, error) {
	sn := s.sn
	rows := make([]hdrRow, 0, sn.count)
	off := int64(headerSize)
	for off < sn.bound {
		buf := dst.span(int(min(sn.bound-off, scanSpanBytes)))
		n, rerr := s.f.ReadAt(buf, off)
		if rerr != nil && rerr != io.EOF {
			return nil, rerr
		}
		pos := 0
		for pos+tracer.Align <= n {
			_, recSize, err := tracer.PeekRecord(buf[pos:n])
			if err != nil {
				return nil, err
			}
			frame := recSize + tailSize
			if recSize > maxRecordSize || pos+frame > n {
				break // the next span rereads it
			}
			rec := buf[pos : pos+recSize]
			if err := checkFrame(rec, buf[pos+recSize:pos+frame]); err != nil {
				return nil, err
			}
			if _, err := payloadLen(rec); err != nil {
				return nil, err
			}
			rows = append(rows, hdrRow{stamp: le64(rec[8:]), ts: le64(rec[16:]), w3: le64(rec[24:])})
			pos += frame
		}
		if pos == 0 {
			break // the end of the segment as far as this pass can see
		}
		off += int64(pos)
	}
	slices.SortStableFunc(rows, func(a, b hdrRow) int { return cmp.Compare(a.stamp, b.stamp) })
	if off == sn.bound {
		s.st.bcache.put(&cacheEnt{key: s.hk, hdrs: rows, size: hdrSetSize(len(rows))})
	}
	return rows, nil
}

// stepHeaders is the header walker: the next hdrStepRows rows of the
// header set, tested by MatchHeader and handed over with a payload of
// the row's length, up to the first stamp past the query's highest.
func (s *segScan) stepHeaders(dst rowSink) (more bool) {
	q := s.q
	end := min(len(s.hdrs), s.hpos+hdrStepRows)
	for _, r := range s.hdrs[s.hpos:end] {
		if r.stamp > q.maxStamp {
			s.cut = true
			s.hpos = len(s.hdrs)
			return false
		}
		core, tid, cat, level := splitW3(r.w3)
		if q.pred.MatchHeader(r.stamp, r.ts, core, tid, cat, level) {
			dst.row(r.stamp, r.ts, core, tid, cat, level, tracer.LengthOnly(int(uint16(r.w3))))
		}
	}
	s.hpos = end
	return end < len(s.hdrs)
}

// spanBytes is the size of the span the next step of a row segment
// reads into a sink that keeps payload bytes, or does not; a cold
// segment's rows alias block-cache memory, and a header set's alias
// nothing, not a span.
func (s *segScan) spanBytes(keep bool) int64 {
	if s.sn.cold || s.hdrs != nil || s.build {
		return 0
	}
	want := s.sn.bound - s.off
	// An unordered segment whose payloads are kept is read whole: its
	// driver sorts the rows, so they must all alias one buffer. Rows that
	// alias nothing sort as well from one span after another.
	if (s.sn.ordered || !keep) && want > scanSpanBytes {
		want = scanSpanBytes
	}
	return want
}

// stepBlock is the block rung: directory entries are vetoed on their
// header metadata — stamp/time hulls, core and category bitmaps, and
// for the columnar formats the TID range and bloom — before any byte of
// the block is read, and an ordered segment is cut at the first block
// that starts past MaxStamp. The first survivor is decoded by column
// (v2, v3) or by frame walk over its inflated bytes (v1).
func (s *segScan) stepBlock(dst rowSink) (more bool, err error) {
	sn, q := s.sn, s.q
	for s.off < sn.bound {
		b := &sn.blocks[s.off]
		if sn.ordered && b.meta.baseStamp > q.maxStamp {
			s.cut = true // every later block starts later still
			break
		}
		if !q.matchColdBlock(b) {
			s.off++
			s.st.obs.blocksPruned.Add(1)
			continue
		}
		if b.v2 != nil {
			err = s.columns(b, dst)
		} else {
			err = s.inflatedFrames(b, dst)
		}
		if err != nil {
			return false, err
		}
		s.off++
		if s.cut {
			break
		}
		return s.off < sn.bound, nil
	}
	s.off = sn.bound
	return false, nil
}

// inflatedFrames walks a v1 block: the format is frame-preserving, so
// the inflated bytes are exactly the frames the row segment held. The
// buffer is shared block-cache memory: rows alias it read-only and the
// GC keeps it alive for as long as any row does.
func (s *segScan) inflatedFrames(b *coldBlock, dst rowSink) error {
	buf, err := s.st.inflateCached(s.sn.name, s.f, b)
	if err != nil {
		return err
	}
	used, err := s.frames(buf, dst)
	if err == nil && !s.cut && used != len(buf) {
		// A committed block holds whole frames only.
		err = fmt.Errorf("%w: cold frame overruns block", tracer.ErrCorrupt)
	}
	return err
}

// frames walks the whole CRC-framed records in buf and returns the
// bytes they span; a trailing partial frame is left for the caller (the
// next span rereads it). Every frame's tail magic is checked, which
// keeps the walk itself honest; the checksum and the decode are
// deferred until the raw header words say the query wants the record,
// so a pruned frame costs three loads and a mask test instead of a CRC
// pass. Checking every frame is recovery's and the compactor's job: they
// read whole files.
func (s *segScan) frames(buf []byte, dst rowSink) (used int, err error) {
	q := s.q
	maxStamp := ^uint64(0) // ordered early exit bound
	if s.sn.ordered {
		maxStamp = q.maxStamp
	}
	predPay, keep := q.pred.NeedsPayload(), dst.payloads()
	pos := 0
	for pos+tracer.Align <= len(buf) {
		_, recSize, perr := tracer.PeekRecord(buf[pos:])
		if perr != nil {
			return 0, perr
		}
		frame := recSize + tailSize
		if recSize > maxRecordSize || pos+frame > len(buf) {
			// Not a whole frame of this buffer. An implausible size word
			// lands here too and so ends a row segment quietly (recovery
			// truncates it at reopen) instead of driving an unbounded read.
			break
		}
		rec, tail := buf[pos:pos+recSize], buf[pos+recSize:pos+frame]
		if magic := uint32(le64(tail) >> 32); magic != frameMagic {
			return 0, fmt.Errorf("%w: bad frame magic %#x", tracer.ErrCorrupt, magic)
		}
		if recSize < tracer.EventHeaderSize {
			return 0, fmt.Errorf("%w: short event", tracer.ErrCorrupt)
		}
		pos += frame
		stamp := le64(rec[8:])
		if stamp > maxStamp {
			s.cut = true
			break
		}
		ts := le64(rec[16:])
		core, tid, cat, level := splitW3(le64(rec[24:]))
		if !q.pred.MatchHeader(stamp, ts, core, tid, cat, level) {
			continue
		}
		if err := checkFrame(rec, tail); err != nil {
			return 0, err
		}
		var payload []byte
		if predPay || keep {
			var e tracer.Entry
			if err := decodeEventTo(rec, &e); err != nil {
				return 0, err
			}
			// MatchHeader is conservative for payload predicates; finish the
			// job now that the payload is decoded.
			if predPay && !q.pred.Match(&e) {
				continue
			}
			payload = e.Payload
		}
		if !keep {
			// The length is in the header; the row aliases nothing of buf.
			plen, err := payloadLen(rec)
			if err != nil {
				return 0, err
			}
			payload = tracer.LengthOnly(plen)
		}
		dst.row(stamp, ts, core, tid, cat, level, payload)
	}
	return pos, nil
}

// blockCols is the column walker's view of one columnar block: the rows
// under evaluation and, fetched through the block cache the first time
// somebody asks, its columns. It is what the predicate kernels
// (btql.Columns) and the sinks read from, so what a query costs a block
// is the columns its predicate and its sink name.
type blockCols struct {
	s *segScan
	b *coldBlock
	m *metaSec
	n int // rows under evaluation: the block's, less the MaxStamp cut
	// sum is the block header as the predicate sees it.
	sum btql.Meta

	stamps, ts   []uint64
	tids, payOff []uint32
	// pay holds the block's payload chunks by index, nil for one nobody
	// needed; all of it is nil when nobody needed any. chunk is the one
	// payload resolved a row through last — rows come in ascending
	// order, so the next row's is usually the same — holding the bytes
	// from raw offset chunkBase on of rows [chunkLo, chunkHi).
	pay              [][]byte
	chunk            []byte
	chunkBase        uint32
	chunkLo, chunkHi int32
}

func (c *blockCols) Summary() *btql.Meta { return &c.sum }

func (c *blockCols) Stamps() []uint64 {
	if c.stamps == nil {
		c.stamps = c.s.st.wide64Cached(c.s.sn.name, c.b, c.m, secStamps)
	}
	return c.stamps[:c.n]
}

func (c *blockCols) Times() []uint64 {
	if c.ts == nil {
		c.ts = c.s.st.wide64Cached(c.s.sn.name, c.b, c.m, secTimes)
	}
	return c.ts[:c.n]
}

func (c *blockCols) TIDs() []uint32 {
	if c.tids == nil {
		c.tids = c.s.st.wide32Cached(c.s.sn.name, c.b, c.m, secTIDs)
	}
	return c.tids[:c.n]
}

// Bytes returns a byte-wide column in place in the cached meta section;
// categories come as indices into the block's dictionary.
func (c *blockCols) Bytes(f btql.Field) (col, dict []uint8) {
	switch f {
	case btql.FCore:
		return c.m.cores[:c.n], nil
	case btql.FCategory:
		return c.m.catIdx[:c.n], c.m.dict
	default:
		return c.m.levels[:c.n], nil
	}
}

// payOffsets returns the payload prefix sum: row i's payload is bytes
// [off[i], off[i+1]) of the concatenated payloads.
func (c *blockCols) payOffsets() []uint32 {
	if c.payOff == nil {
		c.payOff = c.s.st.wide32Cached(c.s.sn.name, c.b, c.m, secPayOff)
	}
	return c.payOff
}

// payload returns row i's payload bytes, resolved through the chunk the
// row lives in; nil for a row without any, and for every row when no
// chunk was fetched. The slice aliases the chunk — shared block-cache
// memory — read-only; the GC keeps it alive for as long as any row
// does. Asking for a row whose chunk fetchChunks was not told about is
// a bug, and panics.
func (c *blockCols) payload(i int32) []byte {
	if c.pay == nil {
		return nil
	}
	lo, hi := c.payOff[i], c.payOff[i+1] // fetchChunks decoded the column
	if hi == lo {
		return nil
	}
	if i < c.chunkLo || i >= c.chunkHi {
		rows := int32(c.b.v2.chunkRows)
		k := i / rows
		c.chunk, c.chunkBase = c.pay[k], c.m.chunkRaw[k]
		c.chunkLo, c.chunkHi = k*rows, (k+1)*rows
	}
	return c.chunk[lo-c.chunkBase : hi-c.chunkBase : hi-c.chunkBase]
}

// columns is the column walker over one columnar block. The block's
// inflated meta section comes through the block cache; the query is
// evaluated over it one column at a time into a selection, decoding
// only the wide columns its filters name; and what remains of the rows
// is then handed to the sink in one call. Payload bytes are fetched a
// chunk at a time, and only the chunks holding a payload byte somebody
// will read: a selected row's when the sink keeps payloads, a row's the
// selection left unsure when a payload predicate has yet to settle it.
// A block whose selection is empty or payload-free, and any scan whose
// sink keeps no payload bytes (an aggregate, a length-only cursor) under
// a predicate that reads none, never touches its compressed payload.
func (s *segScan) columns(b *coldBlock, dst rowSink) error {
	sn, q := s.sn, s.q
	m, err := s.st.metaCached(sn.name, s.f, b)
	if err != nil {
		return err
	}
	c := &s.cols
	*c = blockCols{s: s, b: b, m: m, n: m.rows(), sum: summary(&b.meta, b.v2)}
	if max := q.maxStamp; sn.ordered && b.meta.maxStamp > max {
		// The MaxStamp cut: an ordered segment's stamp column is sorted.
		stamps := c.Stamps()
		c.n = sort.Search(c.n, func(i int) bool { return stamps[i] > max })
		s.cut = true
	}
	s.sel.Reset(c.n)
	q.pred.Select(c, &s.sel)
	if cap(s.idx) < c.n {
		s.idx = make([]int32, 0, m.rows())
	}
	idx := s.sel.Rows(s.idx[:0])
	unsure := !s.sel.Exact()
	if len(m.chunkCRC) > 0 { // the block has a payload section
		if err := s.fetchChunks(c, idx, unsure, dst.payloads()); err != nil {
			return err
		}
	}
	if unsure {
		k := 0
		for _, i := range idx {
			if s.sel.Sure(i) || q.pred.MatchRow(c, i, c.payload(i)) {
				idx[k] = i
				k++
			}
		}
		idx = idx[:k]
	}
	if len(idx) > 0 {
		dst.rows(c, idx)
	}
	return nil
}

// fetchChunks maps rows idx to the payload chunks that hold a byte
// somebody will read — every row's if the sink keeps payloads, else
// only those of the rows a payload predicate has yet to settle — and
// makes those chunks, and no others, resident in c.pay.
func (s *segScan) fetchChunks(c *blockCols, idx []int32, unsure, keep bool) error {
	m, obs := c.m, s.st.obs
	need := s.need[:0]
	if (unsure || keep) && len(idx) > 0 {
		off, rows := c.payOffsets(), int32(c.b.v2.chunkRows)
		next := int32(0) // first row past the chunk marked last
		for _, i := range idx {
			if i >= next && off[i+1] > off[i] && (keep || !s.sel.Sure(i)) {
				k := i / rows
				need, next = append(need, k), (k+1)*rows
			}
		}
	}
	s.need = need
	n := len(m.chunkCRC)
	obs.chunksSkipped.Add(uint64(n - len(need)))
	if len(need) == 0 {
		obs.payloadSkips.Add(1)
		return nil
	}
	if cap(s.pay) < n {
		s.pay = make([][]byte, n)
	}
	c.pay = s.pay[:n]
	clear(c.pay)
	var err error
	s.miss, err = s.st.chunksCached(s.sn.name, s.f, c.b, m, need, c.pay, s.miss)
	return err
}
