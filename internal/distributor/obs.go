package distributor

import (
	"fmt"
	"runtime"

	"btrace/internal/obs"
)

// distObs is the one home of the distributor's counts: request
// goroutines bump them concurrently, so they are obs primitives, and
// Stats reads them here. It is allocated separately from the
// Distributor so the registry's collector closure never pins it, with a
// finalizer folding the series into retired totals.
type distObs struct {
	batches     *obs.Counter
	seen        *obs.Counter
	throttled   *obs.Counter
	gateDropped *obs.Counter
	acked       *obs.Counter
	refused     *obs.Counter

	replicaErrors *obs.Counter
	hedges        *obs.Counter
	drainMoved    *obs.Counter

	// Aggregates answered by the shards' partials, by the merged fold,
	// and why the latter (keyed by the fallback* reasons).
	aggPushdown  *obs.Counter
	aggMerged    *obs.Counter
	aggFallbacks map[string]*obs.Counter

	shards      obs.Gauge
	replication obs.Gauge
}

func newDistObs() *distObs {
	o := &distObs{
		batches:       obs.NewCounter(4),
		seen:          obs.NewCounter(4),
		throttled:     obs.NewCounter(4),
		gateDropped:   obs.NewCounter(4),
		acked:         obs.NewCounter(4),
		refused:       obs.NewCounter(4),
		replicaErrors: obs.NewCounter(4),
		hedges:        obs.NewCounter(4),
		drainMoved:    obs.NewCounter(4),
		aggPushdown:   obs.NewCounter(1),
		aggMerged:     obs.NewCounter(1),
		aggFallbacks:  make(map[string]*obs.Counter),
	}
	for _, reason := range fallbackReasons {
		o.aggFallbacks[reason] = obs.NewCounter(1)
	}
	return o
}

// collect emits the distributor's series; runs under the registry lock
// and must not reference the Distributor.
func (o *distObs) collect(e *obs.Emitter) {
	e.Counter("btrace_distributor_batches_total", "ingest batches offered to the distributor", o.batches.Load())
	e.Counter("btrace_distributor_events_seen_total", "events offered to the distributor", o.seen.Load())
	e.Counter("btrace_distributor_events_throttled_total", "events dropped by per-tenant quota overrides", o.throttled.Load())
	e.Counter("btrace_distributor_events_gate_dropped_total", "events dropped by the shared overload gate", o.gateDropped.Load())
	e.Counter("btrace_distributor_events_acked_total", "events durably applied on a replica quorum", o.acked.Load())
	e.Counter("btrace_distributor_events_refused_total", "events that failed quorum after hedging", o.refused.Load())
	e.Counter("btrace_distributor_replica_errors_total", "replica deliveries that failed", o.replicaErrors.Load())
	e.Counter("btrace_distributor_hedges_total", "deliveries hedged to a non-owner candidate", o.hedges.Load())
	e.Counter("btrace_distributor_drain_moved_events_total", "events copied to new owners by shard joins and drains", o.drainMoved.Load())
	const byPath = "aggregate queries answered, by path: folded on the shards, or over the merged event stream"
	e.Counter(`btrace_distributor_aggregates_total{path="pushdown"}`, byPath, o.aggPushdown.Load())
	e.Counter(`btrace_distributor_aggregates_total{path="merged"}`, byPath, o.aggMerged.Load())
	for _, reason := range fallbackReasons {
		e.Counter(fmt.Sprintf("btrace_distributor_aggregate_fallbacks_total{reason=%q}", reason), "aggregate queries the shards could not answer, by reason: a shard down or draining, replica fingerprints that do not add up, a failed shard fold", o.aggFallbacks[reason].Load())
	}
	e.Gauge("btrace_distributor_shards", "shards in the ring", float64(o.shards.Load()))
	e.Gauge("btrace_distributor_replication", "configured replication factor", float64(o.replication.Load()))
}

// registerObs wires the counters into the process-wide registry; the
// finalizer folds the series when the Distributor becomes unreachable
// (tests build many).
func (d *Distributor) registerObs() {
	reg := obs.Default()
	id := reg.Register(d.obs.collect)
	runtime.SetFinalizer(d, func(*Distributor) { reg.Fold(id) })
}
