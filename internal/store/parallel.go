// Parallel pruned queries. QueryParallel answers the same tracer.Cursor
// contract as the sequential Cursor, but scans the surviving segments
// with a bounded worker pool feeding a k-way merge by stamp:
//
//   - Prune first: the per-round snapshot drops sealed segments whose
//     header metadata (stamp/time min-max, core and category bitsets)
//     cannot match the query, without ever opening their files.
//   - One goroutine per surviving segment steps the shared scan (scan.go)
//     into chunks it streams over a channel; a semaphore of `workers`
//     permits bounds how many are inside a read+decode at once.
//   - The merge pops streams by head stamp (or concatenates them when
//     the segments' stamp ranges are disjoint and ordered — the common
//     sealed-rotation layout — which is a straight copy per chunk).
//
// Rounds are incremental like the sequential cursor: a round snapshots
// the committed state, drains it, and records per-segment resume
// offsets; a later Next starts a new round from those offsets, so
// appends landing between calls are picked up and nothing is delivered
// twice. Entries handed out borrow chunk buffers that stay valid until
// the next Next or Close, matching the cursor ownership contract, and
// `missed` is the same upper bound the sequential cursor reports when
// retention laps the reader.
package store

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"btrace/internal/tracer"
)

// DefaultQueryWorkers is the scan-pool size when the caller passes
// workers <= 0.
const DefaultQueryWorkers = 4

// pchunk is the entry sink of the shared scan: one decoded batch, in
// flight from a stream to the merge (PCursor) or being drained in place
// (Cursor). Hot entries' payloads alias data.
type pchunk struct {
	entries []tracer.Entry
	data    []byte
}

func (ck *pchunk) payloads() bool { return true }

func (ck *pchunk) span(n int) []byte {
	// Entries already in the chunk alias the current buffer (a second
	// span of an unordered segment): leave it to them and the GC.
	if len(ck.entries) > 0 || cap(ck.data) < n {
		ck.data = make([]byte, n)
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

// rows materialises the selected rows of a v2 block: the one place a
// cold row becomes an entry, after the selection has decided it is
// wanted.
func (ck *pchunk) rows(c *blockCols, idx []int32, pay []byte) {
	stamps, ts, tids, m := c.Stamps(), c.Times(), c.TIDs(), c.m
	for _, i := range idx {
		ck.entries = append(ck.entries, tracer.Entry{
			Stamp: stamps[i], TS: ts[i], Core: m.cores[i], TID: tids[i],
			Category: m.dict[m.catIdx[i]], Level: m.levels[i], Payload: c.payload(pay, i),
		})
	}
}

func (ck *pchunk) reset() {
	ck.entries = ck.entries[:0]
	ck.data = ck.data[:0]
}

// globalChunks backs every scan's chunks, so span buffers (up to
// scanSpanBytes each) survive cursor lifetimes instead of being
// reallocated and rezeroed per query. A chunk only reaches the global
// pool once nothing handed out can alias it: from a cursor's Close,
// after its payloads' validity window has ended, or at the end of an
// Aggregate pass.
var globalChunks = sync.Pool{New: func() any { return new(pchunk) }}

// chunkPool recycles chunks (and their buffers) across spans and
// rounds. Streams and the merge touch it concurrently.
type chunkPool struct {
	mu   sync.Mutex
	free []*pchunk
}

func (p *chunkPool) get() *pchunk {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ck := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return ck
	}
	p.mu.Unlock()
	return globalChunks.Get().(*pchunk)
}

func (p *chunkPool) put(ck *pchunk) {
	ck.reset()
	p.mu.Lock()
	p.free = append(p.free, ck)
	p.mu.Unlock()
}

// pmark is one segment's cross-round resume mark. For row segments off
// is a byte offset; for cold segments it is a block index — the cold
// flag records which, so a tier transition between rounds is detected
// instead of misread.
type pmark struct {
	off  int64
	cold bool
}

// pstream is one segment's scan: a goroutine filling ch, plus the
// merge's view of the current chunk. missed/endOff/err are written by
// the goroutine before ch closes and read by the merge only after the
// close (or after wg.Wait), which orders them.
type pstream struct {
	snap segSnap
	ch   chan *pchunk

	missed uint64
	endOff int64 // resume offset for the next round
	err    error

	cur *pchunk
	idx int
}

// PCursor is a parallel query cursor. It implements tracer.Cursor. Like
// the sequential Cursor it is not safe for concurrent use by multiple
// goroutines (the store itself is).
type PCursor struct {
	st      *Store
	q       *compiled
	workers int

	sem  chan struct{}
	pool chunkPool

	// Round state; streams == nil between rounds.
	streams []*pstream
	h       []*pstream // min-heap by head stamp (general path)
	concat  bool       // disjoint-ordered fast path: consume streams in order
	ci      int
	done    chan struct{}
	wg      sync.WaitGroup

	// Cross-round state.
	progress      map[uint64]pmark // seq -> next unread offset/block
	lowSeq        uint64           // lowest not-fully-consumed seq
	seenRetired   uint64
	pendingMissed uint64
	delivered     int
	retired       []*pchunk // chunks whose entries the caller borrowed last Next
	closed        bool
}

// QueryParallel returns a parallel cursor over the records matching q,
// scanning up to workers segments concurrently (<= 0 selects
// DefaultQueryWorkers).
func (st *Store) QueryParallel(q Query, workers int) *PCursor {
	if workers <= 0 {
		workers = DefaultQueryWorkers
	}
	c := &PCursor{
		st:       st,
		q:        compile(q),
		workers:  workers,
		sem:      make(chan struct{}, workers),
		progress: make(map[uint64]pmark),
	}
	st.mu.Lock()
	c.seenRetired = st.retiredEvents
	if len(st.segs) > 0 {
		c.lowSeq = st.segs[0].seq
	} else {
		c.lowSeq = st.nextSeq
	}
	st.mu.Unlock()
	return c
}

// Next implements tracer.Cursor.
func (c *PCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if c.closed {
		return 0, 0, tracer.ErrClosed
	}
	if len(batch) == 0 {
		return 0, 0, nil
	}
	// Entries handed out by the previous Next are invalid from here on;
	// their chunks go back to the pool.
	c.recycleRetired()
	var missed uint64
	if c.q.limit > 0 && c.delivered >= c.q.limit {
		if c.streams != nil {
			c.abortRound()
		}
		return 0, 0, nil
	}
	if c.streams == nil {
		missed += c.startRound()
		if c.streams == nil {
			return 0, missed, nil
		}
	}
	var n int
	var err error
	if c.concat {
		n, err = c.mergeConcat(batch)
	} else {
		n, err = c.mergeHeap(batch)
	}
	missed += c.pendingMissed
	c.pendingMissed = 0
	return n, missed, err
}

// startRound snapshots the committed store state and launches one scan
// goroutine per surviving segment. Returns events missed to retention
// since the previous round. On return c.streams is nil if there is
// nothing to scan.
func (c *PCursor) startRound() (missed uint64) {
	snaps, m := c.snapshot()
	missed = m
	if len(snaps) == 0 {
		return missed
	}
	c.done = make(chan struct{})
	c.streams = make([]*pstream, 0, len(snaps))
	// Concat fast path: every stream ordered and the stamp ranges
	// strictly increasing across segments — rotation's natural layout.
	c.concat = true
	for i := range snaps {
		if !snaps[i].ordered {
			c.concat = false
			break
		}
		if i > 0 && snaps[i-1].maxStamp >= snaps[i].baseStamp {
			c.concat = false
			break
		}
	}
	c.ci = 0
	c.h = c.h[:0]
	for i := range snaps {
		ps := &pstream{snap: snaps[i], ch: make(chan *pchunk, 1)}
		ps.endOff = snaps[i].start
		c.streams = append(c.streams, ps)
		c.wg.Add(1)
		go c.runStream(ps)
	}
	if !c.concat {
		// Load every stream's head and heapify.
		for _, ps := range c.streams {
			if c.advanceStream(ps) {
				c.h = append(c.h, ps)
			}
		}
		for i := len(c.h)/2 - 1; i >= 0; i-- {
			c.down(i)
		}
	}
	return missed
}

// snapshot captures, under st.mu, the per-segment scan ranges for one
// round: retention-missed accounting, header-metadata pruning, merged-
// coverage resume rules and the sparse first-visit seek all happen
// here, so stream goroutines never touch live segments.
func (c *PCursor) snapshot() ([]segSnap, uint64) {
	st := c.st
	var missed uint64
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.maxRetiredSeq < c.lowSeq {
		// Deletions (if any) were all behind us; forget them.
		c.seenRetired = st.retiredEvents
	} else if st.retiredEvents > c.seenRetired {
		// Retention lapped the cursor.
		missed += st.retiredEvents - c.seenRetired
		c.seenRetired = st.retiredEvents
	}
	var snaps []segSnap
	low := uint64(0)
	for _, s := range st.segs {
		if s.isCold() {
			sn, m, live := c.snapshotCold(s)
			missed += m
			if !live {
				continue
			}
			if low == 0 {
				low = s.seq
			}
			snaps = append(snaps, sn)
			continue
		}
		start := int64(headerSize)
		resumed := false
		if mk, ok := c.progress[s.seq]; ok && !mk.cold {
			start, resumed = mk.off, true
		}
		if s.coversThrough > s.seq {
			// A compacted segment subsumes seqs we may have partially
			// read from the pre-merge sources. The merged file keeps the
			// first source's frames as a byte-identical prefix, so a
			// resume offset recorded against s.seq itself stays valid —
			// but progress inside any other source cannot be translated.
			tainted := false
			for k := range c.progress {
				if k > s.seq && k <= s.coversThrough {
					tainted = true
					break
				}
			}
			if tainted {
				if start < s.size {
					// The un-resumable remainder is bounded by the
					// segment's count; surface it rather than skipping
					// silently (same upper bound the sequential cursor
					// reports for unordered merges).
					missed += s.meta.count
				}
				c.progress[s.seq] = pmark{off: s.size}
				for k := range c.progress {
					if k > s.seq && k <= s.coversThrough {
						delete(c.progress, k)
					}
				}
				continue
			}
		}
		if start >= s.size && s.sealed {
			continue // fully consumed and immutable
		}
		if !c.q.matchSegment(&s.meta) && s.sealed {
			// Prune without opening the file — the header metadata rules
			// out every record.
			c.progress[s.seq] = pmark{off: s.size}
			continue
		}
		if low == 0 {
			low = s.seq
		}
		if !resumed && s.meta.ordered && c.q.minStamp > 0 && len(s.sparse) > 0 {
			lo := sort.Search(len(s.sparse), func(i int) bool {
				return s.sparse[i].stamp >= c.q.minStamp
			})
			if lo > 0 && s.sparse[lo-1].off > start {
				start = s.sparse[lo-1].off
			}
		}
		snaps = append(snaps, snapOf(s, start))
	}
	if low == 0 {
		low = st.nextSeq
	}
	c.lowSeq = low
	return snaps, missed
}

// snapshotCold resolves one cold segment against the progress map.
// Returns its snapshot when the round should scan it (live), or folds
// it into progress/missed accounting when it should not.
//
// A freeze between rounds invalidates byte-offset marks recorded
// against the row sources: block indices and byte offsets do not
// translate. Three cases, mirroring the merged-segment rules:
//   - every source was fully consumed → skip the cold segment whole;
//   - nothing was delivered from any source → rescan from block 0
//     (no duplication possible);
//   - partial consumption → the remainder cannot be resumed without
//     re-delivery; skip it and surface the segment's count through
//     missed (the same upper bound used for unordered merges).
func (c *PCursor) snapshotCold(s *segment) (sn segSnap, missed uint64, live bool) {
	consumed := pmark{off: int64(len(s.blocks)), cold: true}
	start := int64(0)
	if mk, ok := c.progress[s.seq]; ok && mk.cold {
		start = mk.off
	}
	stale, delivered := false, false
	for k, mk := range c.progress {
		if mk.cold || k < s.seq || k > s.coversThrough {
			continue
		}
		stale = true
		if mk.off > headerSize {
			delivered = true
		}
	}
	if stale {
		fully := len(s.srcSizes) > 0
		for seq, size := range s.srcSizes {
			if mk, ok := c.progress[seq]; !ok || mk.cold || mk.off < size {
				fully = false
				break
			}
		}
		for k, mk := range c.progress {
			if !mk.cold && k >= s.seq && k <= s.coversThrough {
				delete(c.progress, k)
			}
		}
		switch {
		case fully:
			c.progress[s.seq] = consumed
			return sn, 0, false
		case !delivered:
			start = 0 // fresh scan: nothing was ever delivered
		default:
			c.progress[s.seq] = consumed
			return sn, s.meta.count, false
		}
	}
	if start >= int64(len(s.blocks)) {
		return sn, 0, false // fully consumed (cold is always sealed)
	}
	if !c.q.matchSegment(&s.meta) {
		c.progress[s.seq] = consumed
		return sn, 0, false
	}
	return snapOf(s, start), 0, true
}

// runStream steps the shared scan over one segment snapshot, sending
// each step's chunk to the merge. A semaphore permit is held only
// across the read+decode, never across a channel send, so a blocked
// merge cannot starve other streams of scan slots. ps.endOff only ever
// advances past steps that succeeded.
func (c *PCursor) runStream(ps *pstream) {
	defer c.wg.Done()
	defer close(ps.ch)
	sn := &ps.snap
	s, missed, err := c.st.openScan(c.q, sn, false)
	if s == nil {
		if ps.err = err; err == nil {
			// Retention won the race to the file.
			ps.missed, ps.endOff = missed, sn.bound
		}
		return
	}
	defer s.f.Close()
	for more := true; more; {
		if !c.acquire() {
			return
		}
		ck := c.pool.get()
		more, err = s.step(ck)
		if !sn.ordered {
			// The whole remaining range (bounded by SegmentBytes) becomes
			// one chunk sorted by stamp, so the merge can treat every
			// stream as stamp-ordered.
			for more && err == nil {
				more, err = s.step(ck)
			}
			sortByStamp(ck.entries)
		}
		c.release()
		if err != nil {
			c.pool.put(ck)
			ps.err = err
			return
		}
		ps.endOff = s.off
		if s.cut && sn.sealed {
			// Ordered early exit on an immutable segment: nothing later
			// can ever match; mark it fully consumed.
			ps.endOff = sn.bound
		}
		if len(ck.entries) == 0 {
			c.pool.put(ck)
			continue
		}
		select {
		case ps.ch <- ck:
		case <-c.done:
			c.pool.put(ck)
			return
		}
	}
}

// sortByStamp orders es by stamp. Entries of equal stamp keep no
// particular order, as under the sort.Slice this replaces (neither sort
// is stable); what changed is the cost: no reflection-based swapper, and
// no sort at all when es is already in order — the common case for a
// segment whose only disorder is two clients' batches interleaving.
func sortByStamp(es []tracer.Entry) {
	byStamp := func(a, b tracer.Entry) int { return cmp.Compare(a.Stamp, b.Stamp) }
	if !slices.IsSortedFunc(es, byStamp) {
		slices.SortFunc(es, byStamp)
	}
}

func (c *PCursor) acquire() bool {
	select {
	case c.sem <- struct{}{}:
		return true
	case <-c.done:
		return false
	}
}

func (c *PCursor) release() { <-c.sem }

// advanceStream makes ps.cur/idx reference the stream's next
// undelivered entry, blocking for the scanner when needed. false means
// the stream finished (its missed tally is folded in).
func (c *PCursor) advanceStream(ps *pstream) bool {
	for {
		if ps.cur != nil {
			if ps.idx < len(ps.cur.entries) {
				return true
			}
			c.retired = append(c.retired, ps.cur)
			ps.cur, ps.idx = nil, 0
		}
		ck, ok := <-ps.ch
		if !ok {
			c.pendingMissed += ps.missed
			ps.missed = 0
			return false
		}
		ps.cur, ps.idx = ck, 0
	}
}

// mergeHeap delivers in global stamp order by popping the stream with
// the smallest head stamp.
func (c *PCursor) mergeHeap(batch []tracer.Entry) (int, error) {
	n := 0
	for n < len(batch) {
		if c.q.limit > 0 && c.delivered >= c.q.limit {
			c.abortRound()
			return n, nil
		}
		if len(c.h) == 0 {
			return n, c.finishRound()
		}
		ps := c.h[0]
		batch[n] = ps.cur.entries[ps.idx]
		ps.idx++
		n++
		c.delivered++
		if ps.idx >= len(ps.cur.entries) {
			if !c.advanceStream(ps) {
				last := len(c.h) - 1
				c.h[0] = c.h[last]
				c.h = c.h[:last]
				if len(c.h) > 1 {
					c.down(0)
				}
				continue
			}
		}
		c.down(0)
	}
	return n, nil
}

// mergeConcat is the disjoint-ordered fast path: streams are consumed
// whole, in segment order, with bulk copies per chunk.
func (c *PCursor) mergeConcat(batch []tracer.Entry) (int, error) {
	n := 0
	for n < len(batch) {
		if c.q.limit > 0 && c.delivered >= c.q.limit {
			c.abortRound()
			return n, nil
		}
		if c.ci >= len(c.streams) {
			return n, c.finishRound()
		}
		ps := c.streams[c.ci]
		if ps.cur == nil || ps.idx >= len(ps.cur.entries) {
			if !c.advanceStream(ps) {
				c.ci++
				continue
			}
		}
		k := copy(batch[n:], ps.cur.entries[ps.idx:])
		if c.q.limit > 0 {
			if rem := c.q.limit - c.delivered; k > rem {
				k = rem
			}
		}
		n += k
		ps.idx += k
		c.delivered += k
	}
	return n, nil
}

// finishRound records every stream's resume offset and surfaces the
// first stream error. Every stream has already closed its channel.
func (c *PCursor) finishRound() error {
	var err error
	c.wg.Wait()
	for _, ps := range c.streams {
		if ps.cur != nil {
			c.retired = append(c.retired, ps.cur)
			ps.cur = nil
		}
		c.progress[ps.snap.seq] = pmark{off: ps.endOff, cold: ps.snap.cold}
		if ps.err != nil && err == nil {
			err = ps.err
		}
	}
	close(c.done)
	c.streams = nil
	c.h = c.h[:0]
	return err
}

// abortRound cancels the in-flight streams (Limit reached or Close) and
// records the offsets they reached. Chunks that never made it to the
// caller go straight back to the pool.
func (c *PCursor) abortRound() {
	close(c.done)
	for _, ps := range c.streams {
		for ck := range ps.ch {
			c.pool.put(ck)
		}
	}
	c.wg.Wait()
	for _, ps := range c.streams {
		if ps.cur != nil {
			c.pool.put(ps.cur)
			ps.cur = nil
		}
		c.progress[ps.snap.seq] = pmark{off: ps.endOff, cold: ps.snap.cold}
	}
	c.streams = nil
	c.h = c.h[:0]
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
		if r := l + 1; r < len(c.h) && c.headStamp(r) < c.headStamp(l) {
			m = r
		}
		if c.headStamp(i) <= c.headStamp(m) {
			return
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
}

func (c *PCursor) headStamp(i int) uint64 {
	ps := c.h[i]
	return ps.cur.entries[ps.idx].Stamp
}

// Close implements tracer.Cursor.
func (c *PCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.streams != nil {
		c.abortRound()
	}
	c.recycleRetired()
	for _, ck := range c.pool.free {
		globalChunks.Put(ck)
	}
	c.pool.free = nil
	return nil
}

var _ tracer.Cursor = (*PCursor)(nil)
