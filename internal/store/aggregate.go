// One-shot aggregate execution. BTQL aggregates (count, rate, topk)
// consume only header fields, so Aggregate drives the shared scan
// (scan.go) with a sink that builds no entries and wants no payloads.
// A columnar cold block hands it its selection in one call, and each
// aggregator reads only the columns it is over: count() is the
// selection's size plus a min/max over the selected times, rate buckets
// those times, topk counts its one field — so a count() never causes a
// stamp or TID column to be decoded, let alone cached. v1 blocks and
// row segments feed it row by row from the raw header words. A record
// body is decoded, and a payload chunk of a columnar block inflated,
// only when the predicate itself inspects payload bytes — and then only
// the chunks holding a row the header fields left undecided.
//
// A pass is two steps, AggregateSnapshot then Fold, so that a cluster
// can take every shard's snapshot at one moment and fold them later. In
// a cluster every event lives on several stores; a fold given an
// Ownership counts only the rows this store is designated to count and
// fingerprints the rest, which is what lets the distributor add the
// stores' partial answers up without counting an event once per replica
// (internal/distributor/aggregate.go). The sink of that fold is a
// second type: the pass of a single store runs the code it always ran.
package store

import "btrace/internal/btql"

// aggSink is the header-only sink of the shared scan.
type aggSink struct {
	aggs []*btql.Aggregator
	buf  *pchunk // pooled; only its span buffer is used
}

func (a *aggSink) payloads() bool { return false }

func (a *aggSink) span(n int) []byte { return a.buf.span(n) }

func (a *aggSink) row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, _ []byte) {
	for _, ag := range a.aggs {
		ag.Observe(stamp, ts, core, tid, cat, level)
	}
}

func (a *aggSink) rows(c *blockCols, idx []int32) {
	for _, ag := range a.aggs {
		ag.ObserveColumns(c, idx)
	}
}

// Ownership places one store's fold among the stores of a replicated
// cluster. The stores are numbered 0..Slots-1; every thread's rows are
// counted by exactly one of them, and held as well by the other owners
// of the thread.
type Ownership struct {
	// Self is this store's slot.
	Self int
	// Slots is the number of stores.
	Slots int
	// CountedBy returns the slot that counts tid's rows if this store is
	// one of tid's owners, and -1 if it is not: a row of such a thread
	// is a copy the placement no longer accounts for. Called from the
	// folding goroutine only.
	CountedBy func(tid uint32) int
}

// Fingerprint identifies a multiset of rows by its size and the sum of
// its stamps, each mixed first so that two sets differing in a few
// neighbouring stamps do not sum alike. Two stores that hold the same
// rows have equal fingerprints wherever they hold them: sums commute.
type Fingerprint struct {
	Rows uint64
	Sum  uint64
}

func (f *Fingerprint) add(stamp uint64) {
	f.Rows++
	f.Sum += mix64(stamp)
}

// Add folds g into f.
func (f *Fingerprint) Add(g Fingerprint) {
	f.Rows += g.Rows
	f.Sum += g.Sum
}

// Times returns the fingerprint of n copies of f's rows.
func (f Fingerprint) Times(n uint64) Fingerprint {
	return Fingerprint{Rows: f.Rows * n, Sum: f.Sum * n}
}

// mix64 is the splitmix64 finalizer, a bijection on 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownedSink is aggSink under an Ownership: the aggregators see only the
// rows this store counts, and every matching row of a thread the store
// owns goes into the fingerprint of the slot that counts it.
type ownedSink struct {
	*aggSink
	own     *Ownership
	held    []Fingerprint
	foreign uint64
	counted []int32 // rows' scratch: the selected rows this store counts
}

func (o *ownedSink) row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, _ []byte) {
	x := o.own.CountedBy(tid)
	if x < 0 {
		o.foreign++
		return
	}
	o.held[x].add(stamp)
	if x == o.own.Self {
		o.aggSink.row(stamp, ts, core, tid, cat, level, nil)
	}
}

func (o *ownedSink) rows(c *blockCols, idx []int32) {
	tids, stamps := c.TIDs(), c.Stamps()
	counted := o.counted[:0]
	for _, i := range idx {
		x := o.own.CountedBy(tids[i])
		if x < 0 {
			o.foreign++
			continue
		}
		o.held[x].add(stamps[i])
		if x == o.own.Self {
			counted = append(counted, i)
		}
	}
	o.counted = counted
	if len(counted) > 0 {
		o.aggSink.rows(c, counted)
	}
}

// AggSnapshot is the point in time one aggregate pass answers for: the
// segments of the store that can hold a match of the query, as they
// were when AggregateSnapshot ran. It holds no file and no buffer.
type AggSnapshot struct {
	st    *Store
	q     *compiled
	snaps []segSnap
}

// AggregateSnapshot fixes what an aggregate pass over q will read.
// Query.Limit is ignored: an aggregate is defined over every match.
func (st *Store) AggregateSnapshot(q Query) *AggSnapshot {
	// The pass covers exactly what a parallel cursor would — same
	// snapshot, same file-rung pruning — folded in place, segment by
	// segment, instead of merged.
	cq := compile(q)
	return &AggSnapshot{st: st, q: cq, snaps: st.snapshot(cq)}
}

// Partial is what one store's fold contributes to an aggregate.
type Partial struct {
	// Aggs are the aggregators, one per spec, over the rows the store
	// counts: every matching row without an Ownership.
	Aggs []*btql.Aggregator
	// Missed reports (an upper bound on) events retention deleted before
	// the pass could read them, mirroring the cursor contract.
	Missed uint64
	// Held is, per slot, the fingerprint of the matching rows this store
	// holds for that slot to count — Held[Self] the counted rows
	// themselves. Nil without an Ownership.
	Held []Fingerprint
	// Foreign counts the matching rows of threads this store does not
	// own under the Ownership: copies nobody vouches for.
	Foreign uint64
}

// Fold runs the pass: one header-only scan over the snapshot, one span
// buffer. With own nil every matching row is counted.
func (p *AggSnapshot) Fold(specs []btql.AggSpec, own *Ownership) (part Partial, err error) {
	agg := &aggSink{aggs: make([]*btql.Aggregator, len(specs)), buf: newChunk(false)}
	defer globalChunks.Put(agg.buf)
	for i := range specs {
		agg.aggs[i] = specs[i].New()
	}
	var sink rowSink = agg
	var owned *ownedSink
	if own != nil {
		owned = &ownedSink{aggSink: agg, own: own, held: make([]Fingerprint, own.Slots)}
		sink = owned
	}
	part.Aggs = agg.aggs
	p.st.obs.reads[readNone].Inc()
	for i := range p.snaps {
		s, m, err := p.st.openScan(p.q, &p.snaps[i], false)
		part.Missed += m
		if err != nil {
			return part, err
		}
		if s == nil {
			continue
		}
		for more := true; more && err == nil; {
			more, err = s.step(sink)
		}
		s.f.Close()
		if err != nil {
			return part, err
		}
	}
	if owned != nil {
		part.Held, part.Foreign = owned.held, owned.foreign
	}
	return part, nil
}

// Aggregate executes specs in one streaming pass over the records
// matching q. Query.Limit is ignored: an aggregate is defined over every
// match. The pass runs against a point-in-time snapshot of the store;
// missed reports (an upper bound on) events retention deleted before
// the pass could read them, mirroring the cursor contract.
func (st *Store) Aggregate(q Query, specs []btql.AggSpec) (results []btql.Result, missed uint64, err error) {
	part, err := st.AggregateSnapshot(q).Fold(specs, nil)
	if err != nil {
		return nil, part.Missed, err
	}
	results = make([]btql.Result, len(part.Aggs))
	for i, a := range part.Aggs {
		results[i] = a.Result()
	}
	return results, part.Missed, nil
}
