// Queries: what a read asks for, and the compiled form every rung of
// the pruning ladder asks in turn. A read is one pass over one
// point-in-time snapshot of the store (parallel.go), and its cursor
// implements tracer.Cursor, so every consumer written against the
// streaming read path — exporters, replay.RetainedStamps, the
// conformance suite — works against disk unchanged. A reader that wants
// what was appended since opens a new cursor above the last stamp it
// was handed.
package store

import "btrace/internal/btql"

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
	// Chrome export). The scan then reads, inflates, copies and keeps
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

// readClass is the read's row of btrace_store_reads_total.
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
