// Queries: what a read asks for, and the compiled form every rung of
// the pruning ladder asks in turn. compile takes Query.Pred as it is,
// so a compiled query is one predicate, a limit and the predicate's
// stamp hull, and nothing else in the store compares an event field
// against a query bound.

package store

import "btrace/internal/btql"

// Query selects a subset of the stored trace. The zero Query matches
// everything. What it selects is said in BTQL alone: a window, a thread,
// a list of cores is a predicate (btql.Compile over btql.Between, In,
// AllOf, or a parsed query), as the HTTP field parameters are
// (btql.ParseParams).
type Query struct {
	// Pred is the compiled BTQL filter; nil matches everything.
	Pred *btql.Predicate
	// Limit caps the number of delivered events (0 = unlimited).
	Limit int
	// LengthsOnly is the read's projection: the caller looks at the
	// length of each entry's Payload and never at its bytes (a CSV or
	// Chrome export). The scan then reads, inflates, copies and keeps
	// alive no payload byte the predicate itself did not need: entries
	// carry tracer.LengthOnly payloads, of the right length and
	// unspecified contents. Aggregates read no payload and ignore it.
	LengthsOnly bool
}

// compiled is the evaluated form of a Query: its predicate, and what
// every pruning site — files, blocks, raw headers, columns — derives
// from it.
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

// matchAll is the predicate of a Query without one.
var matchAll = btql.Compile(nil)

func compile(q Query) *compiled {
	c := &compiled{pred: q.Pred, limit: q.Limit, lengths: q.LengthsOnly}
	if c.pred == nil {
		c.pred = matchAll
	}
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
