// The cursor's driver of the one scan: a stream per segment and their
// merge by stamp, all on the goroutine that calls Next.
//
//   - The snapshot (Store.snapshot, which Aggregate takes too) drops
//     segments whose header metadata cannot match the query, without
//     opening their files.
//   - The first Next looks up each surviving segment's set and opens
//     every other segment's file at once; the merge then steps each
//     stream's scan (scan.go) a chunk at a time, and only once it has
//     used up the stream's current chunk.
//   - The merge takes the segments in order of their smallest stamp and
//     admits one only when that stamp is due, popping the admitted
//     streams by head stamp and copying whole stretches; a segment is
//     not scanned before its admission. Where stamp ranges are
//     disjoint — the common sealed-rotation layout — one stream is in
//     the merge at a time and it is a straight copy per chunk; what a
//     pass holds goes by how many segments overlap, not by how many it
//     reads.
//   - A pass that keeps payload bytes hands each span on with the rows
//     that alias it, and reads an unordered segment whole, because its
//     rows are merged by run (runMerger) and must alias one buffer. A
//     length-only pass has rows that alias nothing: every span is at
//     most scanSpanBytes and is read through the cursor's one span
//     buffer, as is every set it builds. Where the block cache holds the
//     segment's set (scan.go, blockcache.go) the stream yields the set
//     itself, and the merge writes its rows straight into the caller's
//     batch.
//   - A set read in place whose rows the pass tests none of carries its
//     rendering (the text kind); where the merge would write a stretch
//     of its rows it hands NextRendered that stretch's text instead, cut
//     where it cuts entries — at the bound, at the next stream's head
//     and at Limit — but not at the batch's end.
//   - A step that selected fewer than thinRows rows has them copied into
//     a chunk that gathers such rows, so a selective query holds memory
//     in proportion to its matches, not a span per handful of them.

package store

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// pchunk is the entry sink of the shared scan: one decoded batch, from
// a stream to the merge. Hot entries' payloads alias data — unless the query reads
// payload lengths only (lengths, set by whoever took the chunk from the
// pool): then every payload is a tracer.LengthOnly one and no entry
// aliases anything.
//
// A chunk may instead carry a set read in place (hdrs, entries empty):
// its rows are those of hdrs that test matches, every one for a nil
// test, and the first row of hdrs is one of them. The merge turns
// them into entries as it writes them into the caller's batch — or,
// where the set has text (a nil test, and a cursor whose consumer
// renders: NextRendered), hands stretches of the text over instead:
// text and ends are the whole set's rendering (Store.setText) and base
// the place in it of hdrs[0].
type pchunk struct {
	entries []tracer.Entry
	data    []byte
	lengths bool
	hdrs    []hdrRow
	test    *btql.Predicate
	text    []byte
	ends    []uint32
	base    int
}

// newChunk takes a chunk from the global pool for a query that keeps
// payload bytes, or only their lengths.
func newChunk(lengths bool) *pchunk {
	ck := globalChunks.Get().(*pchunk)
	ck.lengths = lengths
	return ck
}

func (ck *pchunk) payloads() bool { return !ck.lengths }

// count is the number of rows the merge steps through.
func (ck *pchunk) count() int {
	if ck.hdrs != nil {
		return len(ck.hdrs)
	}
	return len(ck.entries)
}

func (ck *pchunk) stamp(i int) uint64 {
	if ck.hdrs != nil {
		return ck.hdrs[i].stamp
	}
	return ck.entries[i].Stamp
}

// nextMatch returns the first row of the header set from i on that the
// chunk's test matches, or len(hdrs).
func (ck *pchunk) nextMatch(i int) int {
	if ck.test == nil {
		return i
	}
	for ; i < len(ck.hdrs); i++ {
		r := &ck.hdrs[i]
		core, tid, cat, level, _ := tracer.UnpackWord3(r.w3)
		if ck.test.MatchHeader(r.stamp, r.ts, core, tid, cat, level) {
			break
		}
	}
	return i
}

// setRows writes into dst the header set's matching rows from row i on,
// up to the first stamp past bound, with payloads of the rows' lengths.
// It returns how many it wrote and the next matching row.
func (ck *pchunk) setRows(dst []tracer.Entry, i int, bound uint64) (n, next int) {
	rows, test := ck.hdrs, ck.test
	for n < len(dst) && i < len(rows) {
		r := &rows[i]
		if r.stamp > bound {
			break
		}
		i++
		core, tid, cat, level, _ := tracer.UnpackWord3(r.w3)
		if test != nil && !test.MatchHeader(r.stamp, r.ts, core, tid, cat, level) {
			continue
		}
		r.entry(&dst[n])
		n++
	}
	return n, ck.nextMatch(i)
}

// stretch returns the rendered set's rows from row i on, up to the
// first stamp past bound and at most room of them: how many, and their
// text, one slice of the set's.
func (ck *pchunk) stretch(i int, bound uint64, room int) (int, []byte) {
	rows := ck.hdrs[i:min(len(ck.hdrs), i+room)]
	k := sort.Search(len(rows), func(j int) bool { return rows[j].stamp > bound })
	at, from := ck.base+i, uint32(0)
	if at > 0 {
		from = ck.ends[at-1]
	}
	return k, ck.text[from:ck.ends[at+k-1]]
}

func (ck *pchunk) span(n int) []byte {
	// Entries already in the chunk alias the current buffer (a second
	// span of an unordered segment): leave it to them and the GC.
	if len(ck.entries) > 0 || cap(ck.data) < n {
		// Never smaller than a full span: a segment's short last span
		// must not leave a buffer the next full one cannot use.
		ck.data = make([]byte, n, max(n, scanSpanBytes))
	}
	ck.data = ck.data[:n]
	return ck.data
}

func (ck *pchunk) row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte) {
	ck.entries = append(ck.entries, tracer.Entry{
		Stamp: stamp, TS: ts, Core: core, TID: tid,
		Category: cat, Level: level, Payload: payload,
	})
}

// rows materialises the selected rows of a columnar block: the one
// place a cold row becomes an entry, after the selection has decided it
// is wanted.
func (ck *pchunk) rows(c *blockCols, idx []int32) {
	stamps, ts, tids, m := c.Stamps(), c.Times(), c.TIDs(), c.m
	// A length comes from the payload-offset column, whatever chunks a
	// payload predicate had fetched; a block without a payload section
	// has none to look up.
	var lens []uint32
	if ck.lengths && len(m.chunkCRC) > 0 {
		lens = c.payOffsets()
	}
	for _, i := range idx {
		e := tracer.Entry{
			Stamp: stamps[i], TS: ts[i], Core: m.cores[i], TID: tids[i],
			Category: m.dict[m.catIdx[i]], Level: m.levels[i],
		}
		if lens != nil {
			e.Payload = tracer.LengthOnly(int(lens[i+1] - lens[i]))
		} else {
			e.Payload = c.payload(i) // nil where no chunk was fetched
		}
		ck.entries = append(ck.entries, e)
	}
}

// spanSink is an entry chunk whose spans are read through another
// chunk's buffer: the sink of a length-only pass, whose rows alias no
// span, so that the pass reads every span through the cursor's one span
// buffer and no chunk handed to the merge owns one.
type spanSink struct {
	*pchunk
	buf *pchunk
}

func (s spanSink) span(n int) []byte { return s.buf.span(n) }

// thinRows is the step result below which a stream copies rows out of
// the span they were scanned in instead of handing the span on: a span
// of 90-byte records holds six times as many, so what is copied is
// small beside what was scanned and what is handed on is mostly used.
const thinRows = 512

// take appends copies of es, payloads and all, for as long as the
// payloads fit the chunk's buffer — which they always do when the chunk
// is empty — and returns the entries left over. Rows already in the
// chunk alias the buffer, so it cannot grow under them. Length-only
// payloads alias nothing and are taken as they are.
func (ck *pchunk) take(es []tracer.Entry) []tracer.Entry {
	if ck.lengths {
		ck.entries = append(ck.entries, es...)
		return nil
	}
	if len(ck.entries) == 0 {
		need := 0
		for i := range es {
			need += len(es[i].Payload)
		}
		if cap(ck.data) < need {
			ck.data = make([]byte, 0, max(need, scanSpanBytes))
		}
	}
	for i, e := range es {
		if len(ck.data)+len(e.Payload) > cap(ck.data) {
			return es[i:]
		}
		at := len(ck.data)
		ck.data = append(ck.data, e.Payload...)
		if e.Payload != nil {
			e.Payload = ck.data[at:len(ck.data):len(ck.data)]
		}
		ck.entries = append(ck.entries, e)
	}
	return nil
}

// reset empties the chunk for reuse. The entries are zeroed, not only
// truncated: a pooled chunk must not pin, through payloads nobody can
// reach any more, the span buffers of an unordered segment it once held
// or cold chunks the block cache has since evicted — nor a header set.
func (ck *pchunk) reset() {
	clear(ck.entries)
	ck.entries = ck.entries[:0]
	ck.data = ck.data[:0]
	ck.hdrs, ck.test = nil, nil
	ck.text, ck.ends, ck.base = nil, nil, 0
}

// globalChunks backs every scan's chunks, so span buffers (up to
// scanSpanBytes each) survive cursor lifetimes instead of being
// reallocated and rezeroed per query. A chunk only reaches the global
// pool once nothing handed out can alias it: from a cursor's Close,
// after its payloads' validity window has ended, or at the end of an
// Aggregate pass.
var globalChunks = sync.Pool{New: func() any { return new(pchunk) }}

// chunkPool recycles a cursor's chunks (and their buffers) across
// spans.
type chunkPool struct {
	lengths bool // the cursor's projection, for chunks new to the pool
	free    []*pchunk
}

// get hands out the free chunk whose span buffer fits n bytes most
// closely — the smallest that holds them, else the largest there is —
// so the chunk that has held an unordered segment whole goes to the
// next such segment and not to a 256 KiB span. The free list is a
// handful of chunks.
func (p *chunkPool) get(n int) *pchunk {
	best := -1
	for i, ck := range p.free {
		if best < 0 {
			best = i
			continue
		}
		have, cur := cap(ck.data), cap(p.free[best].data)
		if have >= n && (cur < n || have < cur) || have < n && cur < n && have > cur {
			best = i
		}
	}
	if best < 0 {
		return newChunk(p.lengths)
	}
	ck := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free = p.free[:last]
	return ck
}

func (p *chunkPool) put(ck *pchunk) {
	ck.reset()
	p.free = append(p.free, ck)
}

// pstream is one segment's scan, stepped by the merge, and the merge's
// view of its current chunk.
type pstream struct {
	snap segSnap
	ord  int // place in the cursor's streams: the merge's order at equal stamps

	// s is the scan of the segment's file: opened by start unless the
	// block cache holds the segment's set, nil once the stream has ended.
	// k names the set where the pass reads through one: rows is the set
	// once hit says it is there, and build that the stream builds it
	// (buildSet) on its first step.
	s          *segScan
	k          blockKey
	rows       []hdrRow
	hit, build bool
	// thin gathers the rows of sparse steps, their payloads copied out of
	// the spans they were found in; ready holds the chunks the steps have
	// made that the merge has yet to take.
	thin  *pchunk
	ready []*pchunk
	ended bool

	missed uint64
	err    error

	cur *pchunk
	idx int
}

// PCursor is a query cursor. It implements tracer.Cursor. It is not
// safe for concurrent use by multiple goroutines (the store itself is),
// and it starts none: its pass runs in the caller's Next.
type PCursor struct {
	st *Store
	q  *compiled
	// render is what the consumer renders rows with (NextRendered), nil
	// for one that reads entries alone.
	render tracer.Renderer

	// span is the buffer a length-only pass reads every span through, as
	// is every set build: a pooled chunk used for nothing else, made on
	// first use.
	span *pchunk
	pool chunkPool

	// The pass; streams is nil before the first Next starts it and again
	// once it has ended. streams is in baseStamp order: [0, next) have
	// been admitted to the merge.
	started bool
	streams []*pstream
	next    int
	h       []*pstream // min-heap of admitted streams by head stamp

	pendingMissed uint64
	delivered     int
	retired       []*pchunk // chunks whose entries the caller borrowed last Next
	closed        bool
}

// Query returns a cursor over the records matching q.
func (st *Store) Query(q Query) *PCursor {
	c := &PCursor{st: st, q: compile(q)}
	c.pool.lengths = c.q.lengths
	st.obs.reads[c.q.readClass()].Inc()
	return c
}

// QueryParallel is Query; workers is ignored.
//
// Deprecated: use Query.
func (st *Store) QueryParallel(q Query, workers int) *PCursor { return st.Query(q) }

// Next implements tracer.Cursor.
func (c *PCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n, _, missed, err := c.read(batch)
	return n, missed, err
}

// NextRendered implements tracer.RenderCursor: a set the pass reads in
// place and delivers every row of is rendered by r once, through the
// block cache (Store.setText), and the merge hands over stretches of
// that text where Next would write its rows into the batch — cut where
// Next would cut them, at a stamp another stream has yet to deliver and
// at Limit, but not at the batch's end.
func (c *PCursor) NextRendered(r tracer.Renderer, batch []tracer.Entry) (int, []byte, uint64, error) {
	if !c.started {
		c.render = r
	}
	return c.read(batch)
}

func (c *PCursor) read(batch []tracer.Entry) (int, []byte, uint64, error) {
	if c.closed {
		return 0, nil, 0, tracer.ErrClosed
	}
	if len(batch) == 0 {
		return 0, nil, 0, nil
	}
	// Entries handed out by the previous Next are invalid from here on;
	// their chunks go back to the pool.
	c.recycleRetired()
	if !c.started {
		c.started = true
		c.start()
	}
	if c.streams == nil {
		return 0, nil, 0, nil
	}
	n, text, err := c.merge(batch)
	missed := c.pendingMissed
	c.pendingMissed = 0
	return n, text, missed, err
}

// start snapshots the committed store state and readies one stream per
// surviving segment: its set where the block cache holds it, else its
// file, opened at once — what a retention or freeze pass deletes after
// that the stream still reads. On return c.streams is nil if there is
// nothing to scan.
func (c *PCursor) start() {
	snaps := c.st.snapshot(c.q)
	if len(snaps) == 0 {
		return
	}
	// baseStamp is a floor on every stamp a segment holds, so in this
	// order a segment is not needed before the merge has reached its
	// baseStamp. Rotation's layout is in this order already.
	slices.SortStableFunc(snaps, func(a, b segSnap) int { return cmp.Compare(a.baseStamp, b.baseStamp) })
	all := make([]pstream, len(snaps))
	c.streams = make([]*pstream, len(snaps))
	for i := range snaps {
		ps := &all[i]
		ps.snap, ps.ord = snaps[i], i
		c.streams[i] = ps
		sn := &ps.snap
		if k, sets := c.q.setKey(sn); sets {
			ps.k = k
			ps.rows, ps.hit, ps.build = c.st.headerSet(c.q, sn, k)
		}
		if ps.hit {
			continue
		}
		if ps.s, ps.missed, ps.err = c.st.openScan(c.q, sn); ps.s == nil {
			// A failed open, or (err == nil) the file was deleted under the
			// snapshot and missed bounds what it held.
			ps.ended = true
		}
	}
}

// admit moves the next stream into the merge.
func (c *PCursor) admit() {
	ps := c.streams[c.next]
	c.next++
	if !c.advanceStream(ps) {
		return
	}
	c.h = append(c.h, ps)
	for i := len(c.h) - 1; i > 0; {
		up := (i - 1) / 2
		if !c.less(i, up) {
			break
		}
		c.h[up], c.h[i] = c.h[i], c.h[up]
		i = up
	}
}

// spanBuf returns the cursor's span buffer.
func (c *PCursor) spanBuf() *pchunk {
	if c.span == nil {
		c.span = newChunk(true)
	}
	return c.span
}

// step runs one step of ps's scan — the build of its set, and the set
// as the stream's one chunk (yieldSet), or the next span or block of
// its file — putting any chunk it makes on ps.ready. A stream whose
// scan is over, or has failed, ends.
func (c *PCursor) step(ps *pstream) {
	sn := &ps.snap
	if ps.build {
		ps.build = false
		rows, err := ps.s.buildSet(ps.k, c.spanBuf())
		// A failed build caches nothing. Where the pass reads the segment
		// from its first frame the failure is the pass's; a pass that
		// seeks into it, and the pass a filtered set's build serves, may
		// read less of the segment than the build did, and walks that part
		// instead, as a store without a cache would.
		if err == nil {
			ps.rows, ps.hit = rows, true
		} else if !sn.cold && sn.start == headerSize {
			c.end(ps, err)
			return
		}
	}
	if ps.hit {
		c.yieldSet(ps)
		c.end(ps, nil)
		return
	}
	s := ps.s
	span := s.spanBytes(!c.q.lengths)
	ck := c.pool.get(int(span))
	var sink rowSink = ck
	if c.q.lengths {
		sink = spanSink{ck, c.spanBuf()}
	}
	if span > 0 {
		// Room for every row of the span at the segment's average row
		// size — an eighth more when it has to be made, so that it fits
		// the next span too: append growing the slice instead would
		// leave each buffer it outgrew to the collector, and what a
		// pass holds would go by when the collector last ran.
		// An unordered segment's chunk takes what is left of it, in
		// however many spans.
		bytes := span
		if !sn.ordered {
			bytes = sn.bound - s.off
		}
		if rows := int(uint64(bytes) * sn.count / uint64(sn.bound-headerSize)); cap(ck.entries) < rows {
			ck.entries = slices.Grow(ck.entries, rows+rows/8)
		}
	}
	more, err := s.step(sink)
	if !sn.ordered {
		// The whole range (bounded by SegmentBytes) becomes one chunk
		// sorted by stamp, so the merge can treat every stream as
		// stamp-ordered.
		for more && err == nil {
			more, err = s.step(sink)
		}
		rm := runMergers.Get().(*runMerger)
		ck.entries = rm.sort(ck.entries)
		runMergers.Put(rm)
	}
	if err != nil {
		c.pool.put(ck)
		c.end(ps, err)
		return
	}
	if len(ck.entries) >= thinRows {
		// Rows before it go first.
		if ps.thin != nil {
			ps.ready = append(ps.ready, ps.thin)
			ps.thin = nil
		}
		ps.ready = append(ps.ready, ck)
	} else {
		// A few rows must not hold a span buffer, or the cold chunks they
		// alias, until the caller has let go of them: a selective query
		// would hold a span for every handful of matches. Copy them out
		// and scan the next span into the same chunk.
		for rest := ck.entries; len(rest) > 0; {
			if ps.thin == nil {
				ps.thin = c.pool.get(0)
			}
			if rest = ps.thin.take(rest); len(ps.thin.entries) >= thinRows || len(rest) > 0 {
				ps.ready = append(ps.ready, ps.thin)
				ps.thin = nil
			}
		}
		c.pool.put(ck)
	}
	if !more {
		if ps.thin != nil {
			ps.ready = append(ps.ready, ps.thin)
			ps.thin = nil
		}
		c.end(ps, nil)
	}
}

// end ends ps's scan and closes its file. err, if any, is the stream's,
// surfaced at the end of the pass; rows a failed stream had gathered
// and not yet handed on go with it.
func (c *PCursor) end(ps *pstream, err error) {
	if ps.s != nil {
		ps.s.f.Close()
		ps.s = nil
	}
	if ps.thin != nil {
		c.pool.put(ps.thin)
		ps.thin = nil
	}
	ps.err, ps.ended = err, true
}

// yieldSet hands the merge the stream's set, cut to the query's stamp
// bounds, as its one chunk: rows already in stamp order, which the merge
// reads in place. The merge tests no row where the set's hulls — its
// stamps, cut to the query's bounds, and the segment's times — imply
// every stamp and time comparison of the filter and what is left of it
// is the set's own filter (btql.Residual): none for a header set, k.agg
// for a filtered one.
func (c *PCursor) yieldSet(ps *pstream) {
	q, sn, k, rows := c.q, &ps.snap, ps.k, ps.rows
	lo := sort.Search(len(rows), func(i int) bool { return rows[i].stamp >= q.minStamp })
	cut := rows[lo:]
	cut = cut[:sort.Search(len(cut), func(i int) bool { return cut[i].stamp > q.maxStamp })]
	if len(cut) == 0 {
		return
	}
	ck := c.pool.get(0)
	ck.hdrs = cut
	hull := btql.Meta{MinStamp: cut[0].stamp, MaxStamp: cut[len(cut)-1].stamp, MinTS: sn.minTS, MaxTS: sn.maxTS}
	if rest, ok := q.pred.Residual(&hull); !ok || rest != k.agg {
		ck.test = q.pred
	} else if c.render != nil {
		// Every row goes out: the set's text can stand for them.
		if ck.text, ck.ends = c.st.setText(k, c.render, rows); ck.text != nil {
			ck.base = lo
		}
	}
	if ck.hdrs = cut[ck.nextMatch(0):]; len(ck.hdrs) == 0 {
		c.pool.put(ck)
		return
	}
	ps.ready = append(ps.ready, ck)
}

// runMerger orders entries by stamp by merging their natural runs. An
// unordered segment is not shuffled: its disorder is a few writers'
// batches interleaving, so it is a handful of long ascending runs, and
// merging k runs of n entries is O(n log k) moves of whole stretches
// where a comparison sort pays O(n log n) compares of 56-byte entries.
// It keeps the output buffer and the run table between calls.
type runMerger struct {
	spare []tracer.Entry
	runs  []stampRun
}

// runMergers recycles mergers across segments, cursors and stores. A
// merge trades buffers with the chunk it orders — the chunk leaves with
// the merger's spare, the merger keeps the chunk's old entries slice —
// so a chunk holds one entries slice, as it did when it was sorted in
// place, and the second one exists once per sort under way, not once
// per chunk.
var runMergers = sync.Pool{New: func() any { return new(runMerger) }}

// stampRun is es[lo:hi], ascending by stamp; lo moves up as the merge
// consumes it.
type stampRun struct{ lo, hi int }

// sort returns es ordered by stamp — es itself when it already is, else
// the merger's spare buffer, es taking its place. The order is stable:
// entries of equal stamp keep their order in es, as they do in a header
// set (scan.go), so a segment's rows come out the same whichever walker
// read them.
func (rm *runMerger) sort(es []tracer.Entry) []tracer.Entry {
	// One pass finds the maximal ascending runs.
	runs, lo := rm.runs[:0], 0
	for i := 1; i < len(es); i++ {
		if es[i].Stamp < es[i-1].Stamp {
			runs, lo = append(runs, stampRun{lo, i}), i
		}
	}
	if lo == 0 {
		return es // in order already: the common case costs the one pass
	}
	runs = append(runs, stampRun{lo, len(es)})
	rm.runs = runs // keeps what the table grew to
	// A min-heap of runs by head stamp, and at equal heads by position in
	// es (runs are disjoint, so lo orders them). The smallest run gives up
	// the stretch that stays below the next-smallest head, or at it when
	// that run comes later in es — found by galloping, as stretches are
	// long when runs are few — in one copy.
	head := func(i int) uint64 { return es[runs[i].lo].Stamp }
	before := func(i, j int) bool {
		return head(i) < head(j) || head(i) == head(j) && runs[i].lo < runs[j].lo
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(runs) {
				return
			}
			if r := m + 1; r < len(runs) && before(r, m) {
				m = r
			}
			if !before(m, i) {
				return
			}
			runs[i], runs[m] = runs[m], runs[i]
			i = m
		}
	}
	// last is the highest stamp run 0 may give up before run i's head:
	// that head, or one less when run i comes first in es (then the heap
	// order puts its head above run 0's).
	last := func(i int) uint64 {
		if runs[i].lo < runs[0].lo {
			return head(i) - 1
		}
		return head(i)
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := rm.spare[:0]
	if cap(out) < len(es) {
		// With room to spare, as the slice it trades places with was
		// made: the two keep changing hands, and each must fit the next
		// segment.
		out = make([]tracer.Entry, 0, len(es)+len(es)/8)
	}
	for len(runs) > 1 {
		next := last(1)
		if len(runs) > 2 {
			next = min(next, last(2))
		}
		r := &runs[0]
		run := es[r.lo:r.hi]
		// Gallop to a bound on the stretch, then bisect inside it.
		hi := 1
		for hi < len(run) && run[hi].Stamp <= next {
			hi *= 2
		}
		lo, hi := hi/2, min(hi, len(run))
		for lo < hi {
			if mid := (lo + hi) / 2; run[mid].Stamp <= next {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out = append(out, run[:lo]...)
		if r.lo += lo; r.lo == r.hi {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		down(0)
	}
	out = append(out, es[runs[0].lo:runs[0].hi]...)
	clear(es) // the spare pins no payload
	rm.spare = es[:0]
	return out
}

// advanceStream makes ps.cur/idx reference the stream's next
// undelivered entry, stepping its scan when needed. false means the
// stream has ended (its missed tally is folded in).
func (c *PCursor) advanceStream(ps *pstream) bool {
	for {
		if ps.cur != nil {
			if ps.idx < ps.cur.count() {
				return true
			}
			c.retired = append(c.retired, ps.cur)
			ps.cur, ps.idx = nil, 0
		}
		for len(ps.ready) == 0 && !ps.ended {
			c.step(ps)
		}
		if len(ps.ready) == 0 {
			c.pendingMissed += ps.missed
			ps.missed = 0
			return false
		}
		ps.cur, ps.idx = ps.ready[0], 0
		ps.ready = append(ps.ready[:0], ps.ready[1:]...)
	}
}

// merge delivers in global stamp order: the admitted stream with the
// smallest head gives up, in one copy, the stretch that stays at or
// below every other stamp still to come — the other heads and the
// baseStamp of the next stream not yet admitted. Entries of equal stamp
// come out stream by stream in snapshot order (pstream.ord), each
// stream's in its own order, so the answer does not depend on where
// chunks or batches happen to end: a stream that comes before the top
// one in that order stops the top's stretch below its head.
//
// A stretch of a set that has text (pchunk) is handed over as that text
// alone, n its rows: the rows before it in this call go first, and it is
// not cut at the batch's end.
func (c *PCursor) merge(batch []tracer.Entry) (n int, text []byte, err error) {
	for n < len(batch) {
		if c.q.limit > 0 && c.delivered >= c.q.limit {
			c.abort()
			return n, nil, nil
		}
		for c.next < len(c.streams) && (len(c.h) == 0 || c.streams[c.next].snap.baseStamp <= c.headStamp(0)) {
			c.admit()
		}
		if len(c.h) == 0 {
			return n, nil, c.finish()
		}
		bound := ^uint64(0)
		if c.next < len(c.streams) {
			bound = c.streams[c.next].snap.baseStamp
		}
		ps := c.h[0]
		for i := 1; i < min(len(c.h), 3); i++ {
			s := c.headStamp(i)
			if c.h[i].ord < ps.ord {
				s-- // the heap order puts s above the top's head
			}
			bound = min(bound, s)
		}
		room := len(batch) - n
		if c.q.limit > 0 {
			room = min(room, c.q.limit-c.delivered)
		}
		// The head itself is at or below bound, so k >= 1.
		k := 0
		if ck := ps.cur; ck.text != nil {
			if n > 0 {
				return n, nil, nil
			}
			room = len(ck.hdrs)
			if c.q.limit > 0 {
				room = c.q.limit - c.delivered
			}
			k, text = ck.stretch(ps.idx, bound, room)
			ps.idx += k
		} else if ck.hdrs != nil {
			k, ps.idx = ck.setRows(batch[n:n+room], ps.idx, bound)
		} else {
			es := ck.entries[ps.idx:]
			es = es[:min(len(es), room)]
			if es[len(es)-1].Stamp > bound {
				k, _ = slices.BinarySearchFunc(es, bound, func(e tracer.Entry, b uint64) int {
					if e.Stamp <= b {
						return -1
					}
					return 1
				})
				es = es[:k]
			}
			k = copy(batch[n:], es)
			ps.idx += k
		}
		n += k
		c.delivered += k
		if ps.idx >= ps.cur.count() && !c.advanceStream(ps) {
			last := len(c.h) - 1
			c.h[0] = c.h[last]
			c.h = c.h[:last]
		}
		c.down(0)
		if text != nil {
			return n, text, nil
		}
	}
	return n, nil, nil
}

// finish ends a pass whose streams have all ended, and surfaces the
// first stream error.
func (c *PCursor) finish() error {
	var err error
	for _, ps := range c.streams {
		if ps.err != nil {
			err = ps.err
			break
		}
	}
	c.streams, c.h = nil, nil
	return err
}

// abort ends the pass early (Limit reached or Close): every stream ends
// and closes its file, and chunks that never made it to the caller go
// straight back to the pool.
func (c *PCursor) abort() {
	for _, ps := range c.streams {
		c.end(ps, nil)
		for _, ck := range ps.ready {
			c.pool.put(ck)
		}
		ps.ready = nil
		if ps.cur != nil {
			c.pool.put(ps.cur)
			ps.cur = nil
		}
	}
	c.streams, c.h = nil, nil
}

func (c *PCursor) recycleRetired() {
	for _, ck := range c.retired {
		c.pool.put(ck)
	}
	c.retired = c.retired[:0]
}

// down restores the min-heap property from index i.
func (c *PCursor) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(c.h) {
			return
		}
		m := l
		if r := l + 1; r < len(c.h) && c.less(r, l) {
			m = r
		}
		if !c.less(m, i) {
			return
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
}

func (c *PCursor) headStamp(i int) uint64 {
	ps := c.h[i]
	return ps.cur.stamp(ps.idx)
}

// less is the heap order: by head stamp, then by snapshot order.
func (c *PCursor) less(i, j int) bool {
	a, b := c.headStamp(i), c.headStamp(j)
	return a < b || a == b && c.h[i].ord < c.h[j].ord
}

// Close implements tracer.Cursor.
func (c *PCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.streams != nil {
		c.abort()
	}
	c.recycleRetired()
	for _, ck := range c.pool.free {
		globalChunks.Put(ck)
	}
	c.pool.free = nil
	if c.span != nil {
		globalChunks.Put(c.span)
		c.span = nil
	}
	return nil
}

var _ tracer.Cursor = (*PCursor)(nil)
