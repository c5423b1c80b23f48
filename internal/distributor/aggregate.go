package distributor

import (
	"slices"

	"btrace/internal/btql"
	"btrace/internal/ring"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Aggregate executes the aggregate specs over the events matching q,
// each counted once however many replicas hold it. Query.Limit is
// ignored: an aggregate is defined over every match. missed reports
// events retention deleted under the pass, as the cursors do.
//
// The fold runs on the shards (pushdown, below) and only the partial
// answers travel, when the shards can show that adding them up counts
// every event once; when they cannot, the merged, replica-deduplicated
// event stream is folded here instead (aggregateMerged). The two agree
// except on a stamp that every one of its replicas holds twice: the
// shards count the copies, as a single store does, and the merge's
// dedup collapses them.
func (d *Distributor) Aggregate(q store.Query, specs []btql.AggSpec) (results []btql.Result, missed uint64, err error) {
	q.Limit = 0
	aggs, missed, reason := d.pushdown(q, specs)
	if reason != "" {
		d.obs.aggFallbacks[reason].Add(1)
		d.obs.aggMerged.Add(1)
		return d.aggregateMerged(q, specs)
	}
	d.obs.aggPushdown.Add(1)
	return aggResults(aggs), missed, nil
}

// Why a pushdown was abandoned for the merged fold: the label values of
// btrace_distributor_aggregate_fallbacks_total.
const (
	// A shard cannot take part: it is down, its write path has failed,
	// or it is being drained and holds events off the ring.
	fallbackUnhealthy = "unhealthy"
	// The shards' copies do not add up: see verified.
	fallbackMismatch = "mismatch"
	// A shard's fold failed.
	fallbackError = "error"
)

var fallbackReasons = []string{fallbackUnhealthy, fallbackMismatch, fallbackError}

// pushdown folds the aggregate on the shards. Under one ring, the rows
// of thread t are counted by the shard ring.Owners(t)[0] names and held
// as well by t's other owners. Every shard makes one header-only pass
// over its own store (store.AggSnapshot.Fold: no cursor, no entries,
// one span buffer) in which it folds the aggregators over the rows it
// counts and fingerprints, per counting shard, the matching rows it
// holds for that shard to count. The partial answers may be added up
// only if every counting shard holds each matching event exactly once
// and nobody else holds one it lacks, which the fingerprints show
// (verified): then aggs is their sum. A non-empty reason says why there
// is none.
//
// The shards' snapshots are taken with the topology held for writing,
// that is between deliveries: Ingest holds it for reading until its
// last delivery has resolved, so no batch is on one replica and not yet
// on the other when the shards are asked, and a count beside a writer
// verifies. The folds run after the lock is released. AddShard's and
// DrainShard's copying goes on outside the lock, so a snapshot can
// catch a range half-copied: its newcomer is short, and that is a
// mismatch.
func (d *Distributor) pushdown(q store.Query, specs []btql.AggSpec) (aggs []*btql.Aggregator, missed uint64, reason string) {
	r, snaps, reason := d.cut(q)
	if reason != "" {
		return nil, 0, reason
	}
	// One shard after the other: the pass holds one span buffer however
	// many shards there are.
	parts := make([]store.Partial, len(snaps))
	for si, snap := range snaps {
		var err error
		if parts[si], err = snap.Fold(specs, ownership(r, si, len(snaps))); err != nil {
			return nil, 0, fallbackError
		}
	}
	if !verified(parts, r.RF()) {
		return nil, 0, fallbackMismatch
	}
	aggs = parts[0].Aggs
	for _, p := range parts {
		missed += p.Missed
	}
	for _, p := range parts[1:] {
		for i, a := range aggs {
			a.Merge(p.Aggs[i])
		}
	}
	return aggs, missed, ""
}

// cut snapshots every shard of the ring between deliveries, and returns
// the ring the snapshots were taken under.
func (d *Distributor) cut(q store.Query) (r *ring.Ring, snaps []*store.AggSnapshot, reason string) {
	d.topo.Lock()
	defer d.topo.Unlock()
	if len(d.shards) != len(d.targets) {
		return nil, nil, fallbackUnhealthy // a draining shard is off the ring
	}
	snaps = make([]*store.AggSnapshot, len(d.targets))
	for si, sh := range d.targets {
		var err error
		if snaps[si], err = sh.AggSnapshot(q); err != nil {
			return nil, nil, fallbackUnhealthy
		}
	}
	return d.ring, snaps, ""
}

// ownership is shard self's place among r's slots shards for one fold.
// A fold asks once per matching row, so the answers for the few hundred
// threads a pass usually meets are kept in a small direct-mapped table;
// a thread it does not hold is looked up in the ring's owner memo,
// which Ingest has usually filled already.
func ownership(r *ring.Ring, self, slots int) *store.Ownership {
	rf := r.RF()
	type memo struct {
		tid uint32
		x   int32
		set bool
	}
	var front [256]memo
	owners := make([]int, 0, rf)
	return &store.Ownership{Self: self, Slots: slots, CountedBy: func(tid uint32) int {
		m := &front[tid%uint32(len(front))]
		if m.set && m.tid == tid {
			return int(m.x)
		}
		x := int32(-1)
		owners = r.Owners(owners[:0], uint64(tid), rf)
		if slices.Contains(owners, self) {
			x = int32(owners[0])
		}
		*m = memo{tid: tid, x: x, set: true}
		return int(x)
	}}
}

// verified reports whether the shards' parts add up to every matching
// event counted once. An event is on all rf of its thread's owners, so
// for every counting shard x the rows the other shards hold for x are
// rf-1 copies of the rows x counted: same number, same stamps. A first
// owner that missed a delivery, a hedged or refused batch that reached
// only some owners, a range a join has not finished copying, and any of
// these found on disk after a restart leave the two sides different. A
// shard that holds matching rows of a thread it does not own — a
// hedged copy, or what a join left on the owner it displaced — fails
// the check as well: the fingerprints cannot tell whether the owners
// have those rows too.
func verified(parts []store.Partial, rf int) bool {
	for x := range parts {
		if parts[x].Foreign != 0 {
			return false
		}
		var others store.Fingerprint
		for s := range parts {
			if s != x {
				others.Add(parts[s].Held[x])
			}
		}
		if others != parts[x].Held[x].Times(uint64(rf-1)) {
			return false
		}
	}
	return true
}

// aggregateMerged folds the aggregators over the merged stream of every
// healthy shard's events (Query), behind the merge cursor's dedup: what
// Aggregate answers with when the shards' parts do not verify, and what
// the tests hold the pushdown against. No aggregator reads a payload
// byte, so the stream is read for payload lengths only. The merge adds
// one mergeBatch of entries per shard to what the shards' scans hold
// themselves — a store.PCursor each, up to three spans per segment of
// its snapshot, an unordered segment's entries and one span buffer —
// so the pass is bounded by the segments that match, not by a constant.
func (d *Distributor) aggregateMerged(q store.Query, specs []btql.AggSpec) (results []btql.Result, missed uint64, err error) {
	q.LengthsOnly = true
	cur, err := d.Query(q, 0)
	if err != nil {
		return nil, 0, err
	}
	defer cur.Close()
	aggs := make([]*btql.Aggregator, len(specs))
	for i := range specs {
		aggs[i] = specs[i].New()
	}
	batch := make([]tracer.Entry, mergeBatch)
	for {
		n, m, nerr := cur.Next(batch)
		missed += m
		if nerr != nil {
			return nil, missed, nerr
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			for _, a := range aggs {
				a.ObserveEntry(&batch[i])
			}
		}
	}
	return aggResults(aggs), missed, nil
}

func aggResults(aggs []*btql.Aggregator) []btql.Result {
	results := make([]btql.Result, len(aggs))
	for i, a := range aggs {
		results[i] = a.Result()
	}
	return results
}
