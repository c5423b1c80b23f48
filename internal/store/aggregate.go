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

// Aggregate executes specs in one streaming pass over the records
// matching q. Query.Limit is ignored: an aggregate is defined over every
// match. The pass runs against a point-in-time snapshot of the store;
// missed reports (an upper bound on) events retention deleted before
// the pass could read them, mirroring the cursor contract.
func (st *Store) Aggregate(q Query, specs []btql.AggSpec) (results []btql.Result, missed uint64, err error) {
	sink := &aggSink{aggs: make([]*btql.Aggregator, len(specs)), buf: globalChunks.Get().(*pchunk)}
	defer globalChunks.Put(sink.buf)
	for i := range specs {
		sink.aggs[i] = specs[i].New()
	}
	// The pass covers exactly what a parallel cursor would — same
	// snapshot, same file-rung pruning — folded in place, segment by
	// segment, instead of merged.
	cq := compile(q)
	snaps := st.snapshot(cq)
	for i := range snaps {
		s, m, err := st.openScan(cq, &snaps[i], false)
		missed += m
		if err != nil {
			return nil, missed, err
		}
		if s == nil {
			continue
		}
		for more := true; more && err == nil; {
			more, err = s.step(sink)
		}
		s.f.Close()
		if err != nil {
			return nil, missed, err
		}
	}
	results = make([]btql.Result, len(sink.aggs))
	for i, a := range sink.aggs {
		results[i] = a.Result()
	}
	return results, missed, nil
}
