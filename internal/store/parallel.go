// Parallel pruned queries. QueryParallel answers one pass over one
// point-in-time snapshot of the store — what Aggregate folds, delivered
// as entries in global stamp order — scanning the surviving segments
// with a bounded worker pool feeding a k-way merge by stamp:
//
//   - Prune first: the snapshot (Store.snapshot) drops segments whose
//     header metadata (stamp/time min-max, core and category bitsets)
//     cannot match the query, without ever opening their files.
//   - One goroutine per surviving segment steps the shared scan (scan.go)
//     into chunks it streams over a channel; a semaphore of `workers`
//     permits bounds how many are inside a read+decode at once.
//   - The merge pops streams by head stamp (or concatenates them when
//     the segments' stamp ranges are disjoint and ordered — the common
//     sealed-rotation layout — which is a straight copy per chunk).
//
// The snapshot is taken by the first Next. Events appended after it
// belong to a later cursor; once the pass has delivered its last entry
// (or Query.Limit of them) Next answers (0, 0, nil) until Close.
// Following the store as it grows is the sequential Cursor's job.
// Entries handed out borrow chunk buffers that stay valid until the
// next Next or Close, matching the cursor ownership contract, and
// `missed` bounds the snapshot events a retention, merge or freeze pass
// deleted before their stream could open them.
package store

import (
	"cmp"
	"slices"
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

// chunkPool recycles chunks (and their buffers) across spans. Streams
// and the merge touch it concurrently.
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

// pstream is one segment's scan: a goroutine filling ch, plus the
// merge's view of the current chunk. missed/err are written by the
// goroutine before ch closes and read by the merge only after the close
// (or after wg.Wait), which orders them.
type pstream struct {
	snap segSnap
	ch   chan *pchunk

	missed uint64
	err    error

	cur *pchunk
	idx int
}

// PCursor is a parallel query cursor. It implements tracer.Cursor. Like
// the sequential Cursor it is not safe for concurrent use by multiple
// goroutines (the store itself is).
type PCursor struct {
	st *Store
	q  *compiled

	sem  chan struct{}
	pool chunkPool

	// The pass; streams is nil before the first Next starts it and again
	// once it has ended.
	started bool
	streams []*pstream
	h       []*pstream // min-heap by head stamp (general path)
	concat  bool       // disjoint-ordered fast path: consume streams in order
	ci      int
	done    chan struct{}
	wg      sync.WaitGroup

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
	return &PCursor{st: st, q: compile(q), sem: make(chan struct{}, workers)}
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
	if !c.started {
		c.started = true
		c.start()
	}
	if c.streams == nil {
		return 0, 0, nil
	}
	var n int
	var err error
	if c.concat {
		n, err = c.mergeConcat(batch)
	} else {
		n, err = c.mergeHeap(batch)
	}
	missed := c.pendingMissed
	c.pendingMissed = 0
	return n, missed, err
}

// start snapshots the committed store state and launches one scan
// goroutine per surviving segment. On return c.streams is nil if there
// is nothing to scan.
func (c *PCursor) start() {
	snaps := c.st.snapshot(c.q)
	if len(snaps) == 0 {
		return
	}
	c.done = make(chan struct{})
	c.streams = make([]*pstream, 0, len(snaps))
	// Concat fast path: every stream ordered and the stamp ranges
	// strictly increasing across segments — rotation's natural layout.
	c.concat = true
	for i := range snaps {
		if !snaps[i].ordered || i > 0 && snaps[i-1].maxStamp >= snaps[i].baseStamp {
			c.concat = false
			break
		}
	}
	for i := range snaps {
		ps := &pstream{snap: snaps[i], ch: make(chan *pchunk, 1)}
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
}

// runStream steps the shared scan over one segment snapshot, sending
// each step's chunk to the merge. A semaphore permit is held only
// across the read+decode, never across a channel send, so a blocked
// merge cannot starve other streams of scan slots.
func (c *PCursor) runStream(ps *pstream) {
	defer c.wg.Done()
	defer close(ps.ch)
	sn := &ps.snap
	s, missed, err := c.st.openScan(c.q, sn, false)
	if s == nil {
		// A failed open, or (err == nil) the file was deleted under the
		// snapshot and missed bounds what it held.
		ps.missed, ps.err = missed, err
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
			// The whole range (bounded by SegmentBytes) becomes one chunk
			// sorted by stamp, so the merge can treat every stream as
			// stamp-ordered.
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
			c.abort()
			return n, nil
		}
		if len(c.h) == 0 {
			return n, c.finish()
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
			c.abort()
			return n, nil
		}
		if c.ci >= len(c.streams) {
			return n, c.finish()
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

// finish ends a pass whose streams have all closed their channels, and
// surfaces the first stream error.
func (c *PCursor) finish() error {
	var err error
	c.wg.Wait()
	for _, ps := range c.streams {
		if ps.cur != nil {
			c.retired = append(c.retired, ps.cur)
			ps.cur = nil
		}
		if ps.err != nil && err == nil {
			err = ps.err
		}
	}
	close(c.done)
	c.streams, c.h = nil, nil
	return err
}

// abort cancels the in-flight streams (Limit reached or Close). Chunks
// that never made it to the caller go straight back to the pool.
func (c *PCursor) abort() {
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
		c.abort()
	}
	c.recycleRetired()
	for _, ck := range c.pool.free {
		globalChunks.Put(ck)
	}
	c.pool.free = nil
	return nil
}

var _ tracer.Cursor = (*PCursor)(nil)
