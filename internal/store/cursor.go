// Queries and cursors. A store.Cursor implements tracer.Cursor, so every
// consumer written against the streaming read path — exporters,
// replay.RetainedStamps, the collector pipeline, the conformance suite —
// works against disk unchanged. A cursor is incremental: once it drains
// the active segment it returns n == 0, and later Next calls pick up
// whatever was appended (or rotated in) since.
package store

import (
	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// Query selects a subset of the stored trace. The zero Query matches
// everything. Bounds are inclusive; a zero upper bound means unbounded.
type Query struct {
	// MinStamp/MaxStamp bound the logic-stamp range.
	MinStamp, MaxStamp uint64
	// MinTS/MaxTS bound the virtual-time range in nanoseconds.
	MinTS, MaxTS uint64
	// Cores restricts to these virtual cores (empty = all).
	Cores []uint8
	// Categories restricts to these workload categories (empty = all).
	Categories []uint8
	// Limit caps the number of delivered events (0 = unlimited).
	Limit int
	// Pred is an optional compiled BTQL predicate, ANDed with the field
	// filters above.
	Pred *btql.Predicate
	// LengthsOnly is the read's projection: the caller looks at the
	// length of each entry's Payload and never at its bytes (a CSV or
	// Chrome export). The cursor then reads, inflates, copies and keeps
	// alive no payload byte the predicate itself did not need: entries
	// carry tracer.LengthOnly payloads, of the right length and
	// unspecified contents. Aggregates read no payload and ignore it.
	LengthsOnly bool
}

// compiled is the evaluated form of a Query: its field filters lowered
// to BTQL and ANDed with Pred, so that one predicate is all a pruning
// site — files, blocks, raw headers, columns — ever asks.
type compiled struct {
	pred  *btql.Predicate
	limit int // 0 = unlimited
	// lengths is Query.LengthsOnly: what the entry sinks of this query
	// answer payloads() with.
	lengths bool
	// minStamp/maxStamp is pred's stamp hull (maxStamp ^0 = unbounded):
	// where the sparse seek into an ordered segment starts, and the
	// stamp past which scanning one stops.
	minStamp, maxStamp uint64
}

func compile(q Query) *compiled {
	c := &compiled{limit: q.Limit, lengths: q.LengthsOnly, pred: q.Pred.Narrow(
		btql.Between(btql.FStamp, q.MinStamp, q.MaxStamp),
		btql.Between(btql.FTime, q.MinTS, q.MaxTS),
		btql.In(btql.FCore, q.Cores),
		btql.In(btql.FCategory, q.Categories))}
	c.minStamp, c.maxStamp = c.pred.StampBounds()
	return c
}

// readClass is the cursor's row of btrace_store_reads_total.
func (c *compiled) readClass() int {
	if c.lengths {
		return readLengths
	}
	return readBytes
}

// matchMeta is the hull test of the file and block rungs: whether a
// run of records summarised by m can contain a match. v2, when the run
// is a columnar block, adds the TID range and bloom filter its header
// carries, which veto TID membership predicates without touching the
// block bytes.
func (c *compiled) matchMeta(m *segmentMeta, v2 *blockV2) bool {
	if m.count == 0 {
		return false
	}
	bm := summary(m, v2)
	return c.pred.MatchMeta(&bm)
}

// summary renders a run's metadata as the predicate reads it.
func summary(m *segmentMeta, v2 *blockV2) btql.Meta {
	bm := btql.Meta{
		MinStamp: m.baseStamp, MaxStamp: m.maxStamp,
		MinTS: m.minTS, MaxTS: m.maxTS,
		CoreBits: m.coreBits, CatBits: m.catBits,
	}
	if v2 != nil {
		bm.HasTID = true
		bm.MinTID, bm.MaxTID = v2.minTID, v2.maxTID
		bm.TIDs = v2
	}
	return bm
}

// matchSegment reports whether the segment can contain matching records.
func (c *compiled) matchSegment(m *segmentMeta) bool { return c.matchMeta(m, nil) }

// matchColdBlock is matchSegment for one cold block's directory entry.
func (c *compiled) matchColdBlock(b *coldBlock) bool { return c.matchMeta(&b.meta, b.v2) }

// Cursor streams store records, oldest segment first, in append order.
// When the store is fed in stamp order (the collector-pipeline
// guarantee) that is stamp order end to end. Entries handed out borrow
// the cursor's arena per the tracer.Cursor ownership contract.
type Cursor struct {
	st *Store
	q  *compiled

	// nextSeq is the next segment seq to read; cur, snap and scan
	// describe the segment currently being read (scan is nil between
	// segments).
	nextSeq uint64
	cur     *segment
	snap    segSnap
	scan    *segScan

	// ck holds the rows of the span or cold block scanned last, drained
	// by pos. Hot rows alias ck's span buffer; cold rows alias the
	// store's shared block cache, which is never written to.
	ck  *pchunk
	pos int

	// passedMax is the newest stamp of the segment passed last, read or
	// skipped: the floor for resuming inside an ordered merge of it.
	passedMax   uint64
	seenRetired uint64
	delivered   int
	arena       []byte
	closed      bool
}

// NewCursor returns a cursor over the whole store, from the oldest
// retained record onward. It satisfies tracer.CursorSource.
func (st *Store) NewCursor() tracer.Cursor { return st.Query(Query{}) }

// Query returns a cursor over the records matching q.
func (st *Store) Query(q Query) *Cursor {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := &Cursor{st: st, q: compile(q), nextSeq: 1, seenRetired: st.retiredEvents}
	c.ck = newChunk(c.q.lengths)
	st.obs.reads[c.q.readClass()].Inc()
	if len(st.segs) > 0 {
		c.nextSeq = st.segs[0].seq
	}
	return c
}

// Next implements tracer.Cursor: it fills batch with up to len(batch)
// matching events and reports how many events retention deleted ahead of
// the cursor since the previous call (an upper bound when retention laps
// a partially-read segment).
func (c *Cursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if c.closed {
		return 0, 0, tracer.ErrClosed
	}
	c.arena = c.arena[:0]
	var (
		n      int
		missed uint64
	)
	for n < len(batch) && (c.q.limit <= 0 || c.delivered < c.q.limit) {
		if c.pos < len(c.ck.entries) {
			e := c.ck.entries[c.pos]
			c.pos++
			// Re-home the payload in the cursor's arena: the chunk's span
			// buffer is recycled by the next step, and a cold row aliases
			// shared cache memory the entry must not pin past this batch.
			// A length-only payload aliases neither.
			if len(e.Payload) > 0 && !c.q.lengths {
				off := len(c.arena)
				c.arena = append(c.arena, e.Payload...)
				e.Payload = c.arena[off:len(c.arena):len(c.arena)]
			}
			batch[n] = e
			n++
			c.delivered++
			continue
		}
		if c.scan == nil {
			m, ok := c.openNext()
			missed += m
			if !ok {
				break
			}
			continue
		}
		if !c.snap.sealed {
			c.refreshBound()
		}
		c.ck.reset()
		c.pos = 0
		more, err := c.scan.step(c.ck)
		if err != nil {
			// Nothing of the failed span is delivered; its offset stands,
			// so a retry meets the same error.
			c.ck.reset()
			return n, missed, err
		}
		if more {
			continue
		}
		if c.snap.sealed {
			// Segment exhausted for good: move on. The rows still in ck do
			// not need its file.
			c.scan.f.Close()
			c.scan = nil
			c.nextSeq, c.passedMax = c.cur.coversThrough+1, c.snap.maxStamp
			c.cur = nil
			continue
		}
		// The active segment. A stamp past MaxStamp ends this call, not
		// the segment: a writer that reserved lower stamps may yet append
		// them here, and then it is no longer ordered.
		c.scan.cut = false
		if len(c.ck.entries) == 0 {
			break // nothing new committed yet
		}
	}
	return n, missed, nil
}

// openNext locates and opens the next readable segment, honoring merged
// coverage and retention. It returns the events missed to retention and
// whether a segment is now open.
func (c *Cursor) openNext() (missed uint64, ok bool) {
	for {
		c.st.mu.Lock()
		if c.st.maxRetiredSeq < c.nextSeq {
			// Deletions (if any) were all behind us; forget them.
			c.seenRetired = c.st.retiredEvents
		} else if c.st.retiredEvents > c.seenRetired {
			// Retention lapped the cursor.
			missed += c.st.retiredEvents - c.seenRetired
			c.seenRetired = c.st.retiredEvents
		}
		idx := c.st.findSeqLocked(c.nextSeq)
		var seg *segment
		dedupe := false
		switch {
		case idx >= 0 && c.st.segs[idx].seq == c.nextSeq:
			seg = c.st.segs[idx]
		case idx >= 0 && c.st.segs[idx].coversThrough >= c.nextSeq:
			// A merged segment subsumes the seq we wanted. Its prefix was
			// already delivered from the pre-merge sources: re-read it
			// only if stamps tell the two apart. In an ordered merge
			// they do — what came after the source passed last is what
			// lies above that source's newest stamp. (The newest stamp
			// *delivered* is no such floor: with interleaving writers it
			// may come from a segment outside the merge, above stamps
			// inside it that were never read.)
			seg = c.st.segs[idx]
			if seg.meta.ordered {
				dedupe = true
			} else {
				// Unordered merge: stamps can't distinguish delivered
				// records from new ones, so the rest of the merged range
				// cannot be resumed. Surface the gap through missed —
				// the segment's count is an upper bound on what the
				// cursor never saw — rather than skipping silently.
				missed += seg.meta.count
				c.nextSeq, c.passedMax = seg.coversThrough+1, seg.meta.maxStamp
				c.st.mu.Unlock()
				continue
			}
		case idx+1 < len(c.st.segs):
			seg = c.st.segs[idx+1]
		default:
			c.st.mu.Unlock()
			return missed, false
		}
		if !c.q.matchSegment(&seg.meta) && seg.sealed {
			c.nextSeq, c.passedMax = seg.coversThrough+1, seg.meta.maxStamp
			c.st.mu.Unlock()
			continue
		}
		// With dedupe on, everything at or below passedMax is a
		// duplicate: fold that floor into this segment's query, so the
		// sparse seek and the block rung skip the delivered prefix like
		// any other stamp lower bound.
		q := c.q
		if dedupe && c.passedMax+1 > q.minStamp {
			q = compile(Query{MinStamp: c.passedMax + 1, Limit: q.limit, Pred: q.pred, LengthsOnly: q.lengths})
		}
		c.snap = snapOf(seg, q.minStamp)
		c.st.mu.Unlock()

		scan, _, _ := c.st.openScan(q, &c.snap, true)
		if scan == nil {
			// Deleted between lookup and open (retention race): retry the
			// loop, which will re-observe the retirement counters.
			c.nextSeq, c.passedMax = seg.coversThrough+1, c.snap.maxStamp
			continue
		}
		c.scan = scan
		c.cur = seg
		return missed, true
	}
}

// refreshBound re-reads the committed extent of the current segment
// from its *segment, whose size only moves under st.mu and is final once
// sealed — also when a merge, a freeze or retention has since dropped
// the segment from the store (they only take sealed ones) and the
// cursor reads on from the file it holds. The last bound the cursor saw
// is no substitute: whatever was appended between that refresh and the
// seal would be passed over without a word.
func (c *Cursor) refreshBound() {
	c.st.mu.Lock()
	c.snap.bound = c.cur.size
	c.snap.sealed = c.cur.sealed
	c.snap.ordered = c.cur.meta.ordered
	c.snap.maxStamp = c.cur.meta.maxStamp
	idx := c.st.findSeqLocked(c.cur.seq)
	live := idx >= 0 && c.st.segs[idx] == c.cur
	c.st.mu.Unlock()
	if !live {
		// Gone from the store, so it will never grow again — sealed, or
		// the active segment a Reset deleted.
		c.snap.sealed = true
	}
}

// Close implements tracer.Cursor.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.scan != nil {
		c.scan.f.Close()
		c.scan = nil
	}
	c.ck.reset()
	globalChunks.Put(c.ck)
	c.ck = nil
	c.arena = nil
	return nil
}

var (
	_ tracer.Cursor       = (*Cursor)(nil)
	_ tracer.CursorSource = (*Store)(nil)
)
