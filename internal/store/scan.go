// The one scan. This file is the only place in the store that knows how
// a segment's bytes become rows: the block rung over a cold segment's
// directory, the column walker over a columnar block, and the frame
// walker over CRC-framed records (a span of a row segment, or an
// inflated v1 block) — the only frame walk there is. The cursor PCursor
// and Store.Aggregate are its read drivers: each takes segment
// snapshots (the file rung, matchSegment, runs there), opens a segScan
// per snapshot, and steps it into a rowSink — a chunk of entries for
// the cursor, the aggregators for Aggregate. What differs between them
// is sequencing (stamp merge vs fold), never the ladder. Three more
// drive it over a whole segment, under a predicate that selects every
// frame so that the walker checks each one: recovery (recoverySink,
// segment.go), the freeze (freezeSink, compactor.go) and the build of a
// sealed segment's set (buildSet), which the cursor's merge then reads
// in place (parallel.go).
//
// The frame and column walkers differ in when a row comes into being.
// The frame walker meets whole rows, so it tests them one at a time
// (Predicate.MatchHeader on the raw header words), and defers the CRC
// and the decode until a frame's header passes; a pruned frame costs
// its tail-magic check and a mask test. The column walker materialises
// late: it first reduces the block to a selection — the predicate
// evaluated one column at a time (Predicate.Select), each leaf touching
// only the column it names — and only then, and only for a non-empty
// selection, fetches what the sink reads of the selected rows: the
// columns it names and the payload chunks those rows live in. A column
// nobody names is never decoded, a chunk nobody reads never inflated,
// and so neither is ever cached (blockcache.go).
//
// What the sink reads of a payload is the read's projection, and both
// walkers ask it the same question (rowSink.payloads). A sink that
// keeps payload bytes — a cursor feeding a text export or a rebalancing
// copy — gets them: a row of the frame walker aliases the span it was
// found in, a row of the column walker the cached chunk it lives in. A
// sink that does not — the aggregators, and a cursor under
// Query.LengthsOnly — gets a payload's length and none of its bytes
// (tracer.LengthOnly): the frame walker takes it from header word 3
// and the column walker's sink from the payload-offset column. Every
// check stays: the frame checksum of each delivered row, the header's
// payload-length bound, each meta section's checksum. Payload bytes are
// read then only for the predicate's sake, and only where the header
// fields left it unsure.
//
// When a length-only cursor reads a segment's set instead of its file,
// and when it builds one, is the block cache's to say (blockcache.go,
// the headers kind). A row segment's set is built here by a walk under
// a predicate that selects every frame, so every frame of the extent is
// checked, selected or not; a cold segment's filtered set by the column
// walker under the filter's remainder over every block. A build that
// fails caches nothing. After admission a delivered row's checks are
// the ones the build made: the contract of the cold tier, whose cache
// holds values verified once.

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

// hdrRow is one frame's header as a header set keeps it: the stamp, the
// time and header word 3 — core, TID, category, level and payload
// length, packed as the record carries them (tracer.PackWord3).
type hdrRow struct{ stamp, ts, w3 uint64 }

// entry expands the row into e, with a payload of the row's length.
func (r *hdrRow) entry(e *tracer.Entry) {
	core, tid, cat, level, plen := tracer.UnpackWord3(r.w3)
	e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level = r.stamp, r.ts, core, tid, cat, level
	e.Payload = tracer.LengthOnly(plen)
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
// live *segment (which appends keep mutating).
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
	// skipped counts the frames before start: those the sparse seek
	// passed over.
	skipped uint64
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
			sn.start, sn.skipped = s.sparse[lo-1].off, uint64(lo-1)*indexStride
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

// setKey names the set a pass of q reads snapshot sn through, if it
// reads one: a cursor pass that reads payload lengths only, under a
// predicate that reads no payload byte. A row segment has one set, its
// header set: every frame's header up to the snapshot's extent. A
// sealed cold segment has one per filter, its filtered set: the rows
// that pass what is left of q's filter once the stamp and time
// comparisons of its top-level && chain are taken out
// (btql.Predicate.Rest), under which the set is keyed; a filter of
// nothing else has none.
func (q *compiled) setKey(sn *segSnap) (k blockKey, ok bool) {
	if !q.lengths || q.pred.NeedsPayload() {
		return k, false
	}
	k = blockKey{name: sn.name, off: sn.bound, sec: secHeaders}
	if sn.cold {
		k.agg = q.pred.Rest()
		return k, k.agg != ""
	}
	return k, true
}

// headerSet looks up the set k names for a pass of q over sn. A resident
// set is a hit: its rows, all of them (none for a filtered set no row
// passes), the file unopened. Otherwise build reports that the pass
// builds the set (buildSet) and admits it (blockcache.go) — the miss:
//   - a sealed row segment's when the pass reads it to its sealed end,
//     with no ordered cut, and a set the cache's budget could hold. The
//     boundary segment a min_stamp seeks into (snapOf) is such a
//     segment, if the pass's limit, where it has one, covers the frames
//     past the seek: the build walks it from its first frame all the
//     same, so that a window reaching the newest rows, asked again,
//     walks none, but a point read has no use for the rest;
//   - the active segment's when the pass's window holds every stamp of
//     the snapshot. A point read into it never builds one: the segment
//     grows under it, and the set it built would soon be stale;
//   - a cold segment's whenever the cache could hold an entry at all.
func (st *Store) headerSet(q *compiled, sn *segSnap, k blockKey) (rows []hdrRow, hit, build bool) {
	build = st.bcache.fits(hdrSetSize(0))
	switch {
	case sn.cold:
	case !sn.sealed:
		build = q.minStamp <= sn.baseStamp && q.maxStamp >= sn.maxStamp && st.bcache.fits(hdrSetSize(int(sn.count)))
	default:
		whole := sn.skipped == 0 || q.limit == 0 || uint64(q.limit) >= uint64(sn.count)-sn.skipped
		build = whole && (!sn.ordered || q.maxStamp >= sn.maxStamp) && st.bcache.fits(hdrSetSize(int(sn.count)))
	}
	return st.bcache.headerSet(k, build)
}

// hdrSetSize is a set's budget charge: its rows and its entry.
func hdrSetSize(rows int) int64 {
	return int64(unsafe.Sizeof(cacheEnt{})) + int64(unsafe.Sizeof(hdrRow{}))*int64(rows)
}

// step scans the segment's next unit — one span of a row segment, or
// the next cold block the query cannot rule out — into dst. more
// reports whether another step can make progress against sn.bound. A
// failed step consumes nothing: s.off stays put, though dst may hold
// rows that preceded the failure.
func (s *segScan) step(dst rowSink) (more bool, err error) {
	if s.sn.cold {
		return s.stepBlock(dst)
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

// everyFrame is the query of a walk that selects every frame of a row
// segment: recovery's and the freeze's (a header set's build parses the
// same match-all filter from its key). The frame walker checks each
// frame of such a walk as it checks a row it delivers: tail magic,
// checksum, record kind and canonical record size.
var everyFrame = compiled{pred: matchAll, maxStamp: ^uint64(0)}

// wholeSnap is the snapshot of a walk over a row segment's frames from
// the first to byte bound, the frame walk of recovery and the freeze.
// It claims order only so that spanBytes reads it a span at a time: its
// sinks consume each row as they take it, and under everyFrame no stamp
// is past the query's bound, so nothing is cut.
func wholeSnap(bound int64) *segSnap {
	return &segSnap{start: headerSize, bound: bound, ordered: true}
}

// walk steps a pass of q over sn from sn.start into dst until it ends,
// and returns where it ended: for a row segment the end of the last
// whole span it walked, which is sn.bound when every frame up to it was
// whole. A pass that fails returns the error of the step that failed;
// dst has taken the rows before the failing frame, and no row after it.
func (st *Store) walk(q *compiled, sn *segSnap, f backend.ReadFile, dst rowSink) (end int64, err error) {
	s := &segScan{st: st, q: q, sn: sn, f: f, off: sn.start}
	for more := true; more && err == nil; {
		more, err = s.step(dst)
	}
	return s.off, err
}

// buildSet builds the set k names of segment s.sn, reading a row
// segment's spans through buf: the walker runs under the set's filter —
// none for a row segment's header set, whose walk therefore checks
// every frame — over the whole segment, from its first frame or block
// whatever the pass's own start, and its rows are kept as header rows,
// stably sorted by stamp. A row segment's set is admitted to the block
// cache if the walk reached the snapshot's bound (headerSet checked
// that it fits). A cold segment's set no larger than the segment's
// inflated meta sections, which any walk of it caches anyway, nor than
// the cache's budget is admitted; another is not, and the entry left in
// its place says so, so that later passes walk what they read instead
// of building it again. A walk that fails caches nothing.
func (s *segScan) buildSet(k blockKey, buf *pchunk) ([]hdrRow, error) {
	pq, err := btql.Parse(k.agg)
	if err != nil {
		return nil, err
	}
	sn := s.sn
	whole, sink := *sn, setSink{buf: buf}
	if !sn.cold {
		whole.start, sink.set = headerSize, make([]hdrRow, 0, sn.count)
	}
	end, err := s.st.walk(&compiled{pred: pq.Predicate(), maxStamp: ^uint64(0)}, &whole, s.f, &sink)
	if err != nil {
		return nil, err
	}
	rows := sink.set
	slices.SortStableFunc(rows, func(a, b hdrRow) int { return cmp.Compare(a.stamp, b.stamp) })
	ent := &cacheEnt{key: k, hdrs: rows, size: hdrSetSize(len(rows))}
	if !sn.cold {
		if end == sn.bound {
			s.st.bcache.put(ent)
		}
		return rows, nil
	}
	var meta int64
	for i := range sn.blocks {
		if v2 := sn.blocks[i].v2; v2 != nil {
			meta += v2.metaRawLen
		}
	}
	if ent.size > meta || !s.st.bcache.fits(ent.size) {
		ent.hdrs, ent.walk, ent.size = nil, true, hdrSetSize(0)
	}
	s.st.bcache.put(ent)
	return rows, nil
}

// setSink is the sink of a set's build: the rows the scan selects, as
// header rows. It reads payload lengths only, and a row segment's spans
// through buf.
type setSink struct {
	set []hdrRow
	buf *pchunk
}

func (*setSink) payloads() bool { return false }

func (k *setSink) span(n int) []byte { return k.buf.span(n) }

func (k *setSink) row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte) {
	k.set = append(k.set, hdrRow{stamp, ts, tracer.PackWord3(core, tid, cat, level, len(payload))})
}

func (k *setSink) rows(c *blockCols, idx []int32) {
	stamps, ts, tids, m := c.Stamps(), c.Times(), c.TIDs(), c.m
	var lens []uint32
	if len(m.chunkCRC) > 0 { // as pchunk.rows: no payload section, no lengths
		lens = c.payOffsets()
	}
	for _, i := range idx {
		plen := 0
		if lens != nil {
			plen = int(lens[i+1] - lens[i])
		}
		k.set = append(k.set, hdrRow{stamps[i], ts[i], tracer.PackWord3(m.cores[i], tids[i], m.dict[m.catIdx[i]], m.levels[i], plen)})
	}
}

// spanBytes is the size of the span the next step of a row segment
// reads into a sink that keeps payload bytes, or does not; a cold
// segment's rows alias block-cache memory, not a span.
func (s *segScan) spanBytes(keep bool) int64 {
	if s.sn.cold {
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
// next span rereads it). It is the only frame walk in the store. Every
// frame's tail magic is checked, which keeps the walk itself honest;
// the checksum and the decode are deferred until the header's words
// (tracer.PeekEvent) say the query wants the record, so a pruned frame
// costs three loads and a mask test instead of a CRC pass. A walk that
// must check every frame — recovery, the freeze, a header set's build —
// selects every frame. A selected record must be an event of exactly
// the size tracer.EncodeEvent writes for its payload: the store framed
// it, so a record tracer.DecodeEvent would take padded is rot here.
func (s *segScan) frames(buf []byte, dst rowSink) (used int, err error) {
	q := s.q
	maxStamp := ^uint64(0) // ordered early exit bound
	if s.sn.ordered {
		maxStamp = q.maxStamp
	}
	predPay, keep := q.pred.NeedsPayload(), dst.payloads()
	pos := 0
	for pos+tracer.Align <= len(buf) {
		kind, recSize, perr := tracer.PeekRecord(buf[pos:])
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
		stamp, ts, w3 := tracer.PeekEvent(rec)
		if stamp > maxStamp {
			s.cut = true
			break
		}
		core, tid, cat, level, plen := tracer.UnpackWord3(w3)
		if !q.pred.MatchHeader(stamp, ts, core, tid, cat, level) {
			continue
		}
		if err := checkFrame(rec, tail); err != nil {
			return 0, err
		}
		if kind != tracer.KindEvent || recSize != tracer.EventWireSize(plen) {
			return 0, fmt.Errorf("%w: kind %v size %d, payload length %d", tracer.ErrCorrupt, kind, recSize, plen)
		}
		payload := tracer.LengthOnly(plen) // the row aliases nothing of buf
		if predPay || keep {
			var e tracer.Entry
			if err := tracer.DecodeEvent(rec, &e); err != nil {
				return 0, err
			}
			// MatchHeader is conservative for payload predicates; finish the
			// job now that the payload is decoded.
			if predPay && !q.pred.Match(&e) {
				continue
			}
			if keep {
				payload = e.Payload
			}
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
