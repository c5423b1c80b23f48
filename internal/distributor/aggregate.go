package distributor

import (
	"btrace/internal/btql"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Aggregate executes the aggregate specs over the merged,
// replica-deduplicated stream matching q. Aggregation does not push
// down per shard: with replication every event lives on RF shards, so
// folding per-shard partial aggregates together would observe it RF
// times. Running the aggregators behind the merge cursor's dedup keeps
// each stamp counted exactly once. The merge adds one mergeBatch of
// entries per shard to what the shards' scans hold themselves — a
// store.PCursor each, up to three decoded spans per segment of its
// snapshot, a whole segment where replicated delivery left it unordered
// — so the pass is bounded by the segments that match, not by a
// constant. Query.Limit is ignored: an aggregate is defined over every
// match. missed reports events retention deleted under the pass, as the
// cursors do.
func (d *Distributor) Aggregate(q store.Query, specs []btql.AggSpec) (results []btql.Result, missed uint64, err error) {
	q.Limit = 0
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
	results = make([]btql.Result, len(aggs))
	for i, a := range aggs {
		results[i] = a.Result()
	}
	return results, missed, nil
}
