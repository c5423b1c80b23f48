package distributor

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/obs"
	"btrace/internal/store"
)

// Replication is the trap for cluster aggregation: every event lives on
// RF shards, so adding the shards' own counts up would count it RF
// times. Each shard counts only the threads it is first owner of, and
// with a shard down the executor runs behind the merge cursor's dedup,
// so the totals must come out replica-free either way.
func TestDistributorAggregateDeduplicatesReplicas(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	res := d.Ingest("", events(500, 1, 30, 31, 32, 33))
	if res.Acked != 500 {
		t.Fatalf("acked %d of 500", res.Acked)
	}

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggTopK, K: 2, Field: btql.FTID},
	}
	got, _, err := d.Aggregate(store.Query{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Events != 500 {
		t.Fatalf("cluster count = %d, want 500 (RF=2 must not double-count)", got[0].Events)
	}
	if len(got[1].Top) != 2 || got[1].Top[0].Count != 125 {
		t.Fatalf("topk over 4 uniform TIDs: %+v, want counts of 125", got[1].Top)
	}

	// Filtered aggregate, and Limit must not truncate it.
	q, err := btql.Parse(`category == 2`)
	if err != nil {
		t.Fatal(err)
	}
	filtered, _, err := d.Aggregate(store.Query{Pred: q.Predicate(), Limit: 3}, specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if filtered[0].Events != 100 {
		t.Fatalf("filtered cluster count = %d, want 100", filtered[0].Events)
	}

	// A killed shard degrades nothing at RF=2.
	locals[1].Kill()
	got, _, err = d.Aggregate(store.Query{}, specs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Events != 500 {
		t.Fatalf("count after shard kill = %d, want 500", got[0].Events)
	}
}

// TestDistributorAggregateWhileAppending: the shards answer for
// snapshots taken between two deliveries, so a count() taken beside a
// writer is at least what was acked before it started, at most what had
// been submitted when it returned, it is answered by the shards' own
// folds — no batch is caught on one replica and not the other — and on
// the quiet cluster it is exactly the acked stamps.
func TestDistributorAggregateWhileAppending(t *testing.T) {
	d, _ := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	const perBatch = 64
	var submitted, acked atomic.Uint64 // stamps 1..n, all of them acked
	stop, done, first := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			from := acked.Load() + 1
			submitted.Store(from + perBatch - 1)
			res := d.Ingest("", events(perBatch, from, 30, 31, 32, 33, 34))
			if res.Acked == perBatch {
				acked.Store(from + perBatch - 1)
			} else {
				t.Errorf("acked %d of %d", res.Acked, perBatch)
			}
			if from == 1 {
				close(first) // the first ack: the counts below have something to count
			}
			if res.Acked != perBatch {
				return
			}
		}
	}()
	count := func() uint64 {
		t.Helper()
		got, missed, err := d.Aggregate(store.Query{}, []btql.AggSpec{{Kind: btql.AggCount}})
		if err != nil || missed != 0 {
			t.Fatalf("Aggregate: missed=%d err=%v", missed, err)
		}
		return got[0].Events
	}
	<-first
	for i := 0; i < 20; i++ {
		lo := acked.Load()
		n := count()
		if hi := submitted.Load(); n < lo || n > hi {
			t.Fatalf("count() = %d beside a writer, want within [%d acked before, %d submitted after]", n, lo, hi)
		}
	}
	close(stop)
	<-done
	if n := count(); n != acked.Load() || n == 0 {
		t.Fatalf("count() = %d on the quiet cluster, want the %d acked stamps", n, acked.Load())
	}
	if o := d.obs; o.aggPushdown.Load() != 21 || o.aggMerged.Load() != 0 {
		t.Fatalf("%d counts answered by the shards, %d by the merged fold (%d mismatches): want all 21 pushed down, the cut keeps a batch in flight out of the snapshots",
			o.aggPushdown.Load(), o.aggMerged.Load(), o.aggFallbacks[fallbackMismatch].Load())
	}
}

// TestAggregateMergedReadsLengths: no aggregator reads a payload byte,
// so the merged fold a shard failure forces asks every shard for
// payload lengths only — btrace_store_reads_total{payload="lengths"}
// moves once per healthy shard, {payload="bytes"} not at all — and
// answers what the pushdown answered on the clean cluster, also under a
// payload predicate, which the shards' scans still evaluate.
func TestAggregateMergedReadsLengths(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	if res := d.Ingest("", events(500, 1, 30, 31, 32, 33)); res.Acked != 500 {
		t.Fatalf("acked %d of 500", res.Acked)
	}
	needle, err := btql.Parse(`payload contains "e7"`)
	if err != nil {
		t.Fatal(err)
	}
	specs := []btql.AggSpec{{Kind: btql.AggCount}, {Kind: btql.AggTopK, K: 2, Field: btql.FTID}}
	queries := []store.Query{{}, {Pred: needle.Predicate()}}
	want := make([][]btql.Result, len(queries))
	for i, q := range queries {
		if want[i], _, err = d.Aggregate(q, specs); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.obs.aggPushdown.Load(); n != 2 || d.obs.aggMerged.Load() != 0 {
		t.Fatalf("clean cluster: %d pushdown, %d merged", n, d.obs.aggMerged.Load())
	}

	locals[1].Kill()
	reads := func(payload string) float64 {
		return obs.Default().Snapshot().Value(fmt.Sprintf("btrace_store_reads_total{payload=%q}", payload))
	}
	for i, q := range queries {
		bytes, lengths := reads("bytes"), reads("lengths")
		got, missed, err := d.Aggregate(q, specs)
		if err != nil || missed != 0 {
			t.Fatalf("query %d: Aggregate with a shard down: missed %d, err %v", i, missed, err)
		}
		if moved := reads("bytes") - bytes; moved != 0 {
			t.Errorf("query %d: the merged fold made %v payload-keeping reads", i, moved)
		}
		if moved := reads("lengths") - lengths; moved != 3 {
			t.Errorf("query %d: the merged fold made %v length-only reads, want one per healthy shard (3)", i, moved)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("query %d: merged fold %+v, pushdown %+v", i, got, want[i])
		}
	}
	if n := d.obs.aggFallbacks[fallbackUnhealthy].Load(); n != 2 || d.obs.aggMerged.Load() != 2 {
		t.Fatalf("%d unhealthy fallbacks, %d merged folds, want both asks to fall back", n, d.obs.aggMerged.Load())
	}
	if want[1][0].Events == 0 {
		t.Fatal("the payload predicate matched nothing")
	}
}
