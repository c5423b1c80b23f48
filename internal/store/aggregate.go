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
//
// A sealed segment is immutable, so what an aggregate makes of one is
// worked out once. A single store's fold takes the segments of its
// snapshot three ways. An interior segment — sealed, and every stamp
// and time bound of the query holding for all of its rows by the
// header's hulls — is folded into aggregators of its own, which are
// cached (blockcache.go, the partial entries) under the segment and the
// query's residual there, the filter less those bounds, and merged into
// the running total; the next fold that asks the same of it merges the
// cached aggregators and neither opens nor reads the file. So `stamp >=
// 1 && stamp <= N | count()`, a dashboard's sliding window and the bare
// query share the entries of every segment they all cover whole. A
// boundary segment — sealed, but a bound cuts through its hull — is
// scanned by every fold and cached by none: the window that made it
// moves on, and would leave an entry nobody asks for again. The active
// segment, and one sealed only after the snapshot, are scanned up to
// the snapshot's bound, as they always were. A fold under an Ownership
// runs none of this: what it counts depends on a ring the store does
// not know, and no key names.
package store

import (
	"unsafe"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

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
// buffer. With own nil every matching row is counted, and an interior
// segment — sealed, no bound of the query cutting through it — is
// scanned by the first fold that asks this aggregate of it and merged
// from the block cache by those after (partial); boundary segments and
// the active one are scanned every time, and so is everything under an
// Ownership or in a store without a block cache.
func (p *AggSnapshot) Fold(specs []btql.AggSpec, own *Ownership) (Partial, error) {
	return p.fold(specs, own, own == nil && p.st.bcache != nil)
}

// fold is Fold; partials says whether sealed segments go through the
// block cache (tests fold without, for the answer the cache must not
// change).
func (p *AggSnapshot) fold(specs []btql.AggSpec, own *Ownership, partials bool) (part Partial, err error) {
	agg := &aggSink{aggs: newAggs(specs), buf: newChunk(false)}
	defer globalChunks.Put(agg.buf)
	var sink rowSink = agg
	var owned *ownedSink
	if own != nil {
		owned = &ownedSink{aggSink: agg, own: own, held: make([]Fingerprint, own.Slots)}
		sink = owned
	}
	part.Aggs = agg.aggs
	p.st.obs.reads[readNone].Inc()
	var specKey string
	if partials {
		for i := range specs {
			specKey += " | " + specs[i].String()
		}
	}
	for i := range p.snaps {
		sn := &p.snaps[i]
		var m uint64
		if rest, ok := p.residual(sn); ok && partials {
			var aggs []*btql.Aggregator
			if aggs, m, err = p.partial(sn, rest+specKey, specs, agg.buf); err == nil {
				for j, a := range aggs {
					agg.aggs[j].Merge(a)
				}
			}
		} else {
			m, err = p.scan(sn, sink)
		}
		part.Missed += m
		if err != nil {
			return part, err
		}
	}
	if owned != nil {
		part.Held, part.Foreign = owned.held, owned.foreign
	}
	return part, nil
}

func newAggs(specs []btql.AggSpec) []*btql.Aggregator {
	aggs := make([]*btql.Aggregator, len(specs))
	for i := range specs {
		aggs[i] = specs[i].New()
	}
	return aggs
}

// scan folds segment sn into sink. missed is the snapshot's count of a
// segment retention deleted before it could be opened. Of the active
// segment, under a predicate that reads no payload byte, a resident
// header set at the snapshot's extent (scan.go) is folded through
// MatchHeader instead, the file unopened. A fold never builds one.
func (p *AggSnapshot) scan(sn *segSnap, sink rowSink) (missed uint64, err error) {
	if pred := p.q.pred; !sn.sealed && !pred.NeedsPayload() {
		k := blockKey{name: sn.name, off: sn.bound, sec: secHeaders}
		if rows, hit, _ := p.st.bcache.headerSet(k, false); hit {
			for i := range rows {
				r := &rows[i]
				core, tid, cat, level := splitW3(r.w3)
				if pred.MatchHeader(r.stamp, r.ts, core, tid, cat, level) {
					sink.row(r.stamp, r.ts, core, tid, cat, level, tracer.LengthOnly(int(uint16(r.w3))))
				}
			}
			return 0, nil
		}
	}
	s, missed, err := p.st.openScan(p.q, sn)
	if s == nil {
		return missed, err
	}
	for more := true; more && err == nil; {
		more, err = s.step(sink)
	}
	s.f.Close()
	return 0, err
}

// residual is the query as sealed segment sn sees it (btql.Residual by
// the segment's header hulls): the filter less the stamp and time bounds
// that hold for every row of sn. ok is false for a segment that is not
// sealed — its rows are not all there yet — and for a boundary segment,
// one a bound cuts through: both are scanned by every fold.
func (p *AggSnapshot) residual(sn *segSnap) (rest string, ok bool) {
	if !sn.sealed {
		return "", false
	}
	return p.q.pred.Residual(&btql.Meta{MinStamp: sn.baseStamp, MaxStamp: sn.maxStamp, MinTS: sn.minTS, MaxTS: sn.maxTS})
}

// partial returns the fold of specs over interior segment sn through
// the block cache, under the segment's name and sealed extent (why the
// two say what its rows are, and why nothing ever invalidates an entry:
// blockcache.go) and agg, the residual and the specs spelled out. The
// first fold to ask scans the segment into aggregators of its own —
// every check a scan makes is made — and caches them; later ones are
// handed the same aggregators, to merge from and never into. Nothing is
// cached of a scan that failed or found the file gone. buf is the
// caller's span buffer.
func (p *AggSnapshot) partial(sn *segSnap, agg string, specs []btql.AggSpec, buf *pchunk) (aggs []*btql.Aggregator, missed uint64, err error) {
	st := p.st
	k := blockKey{name: sn.name, off: sn.bound, sec: secPartial, agg: agg}
	if ent := st.bcache.get(k); ent != nil {
		return ent.aggs, 0, nil
	}
	aggs = newAggs(specs)
	if missed, err = p.scan(sn, &aggSink{aggs: aggs, buf: buf}); missed != 0 || err != nil {
		return nil, missed, err
	}
	size := int64(unsafe.Sizeof(cacheEnt{}))
	for _, a := range aggs {
		size += a.Size()
	}
	st.bcache.put(&cacheEnt{key: k, aggs: aggs, size: size})
	return aggs, 0, nil
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
