// Package obs is BTrace's zero-dependency self-observability core: the
// tracer whose value proposition is negligible overhead must be able to
// measure — and expose — its own cost in production. obs provides the
// three metric primitives the hot subsystems instrument themselves with
// (sharded padded counters, gauges, and fixed-bucket histograms with a
// lock-free Observe), and a registry that merges every live instance into
// one consistent Snapshot rendered as Prometheus text.
//
// The design constraint, enforced by BenchmarkObsOverhead, is that
// instrumentation on the record/read fast paths stays allocation-free and
// within noise of the uninstrumented baseline. That rules out any shared
// mutex and any shared cache line on the write path: Counter shards its
// backing words (callers route by core id via AddAt), and every word is
// padded to its own cache line so two cores incrementing "writes" never
// bounce a line between them. The core buffer goes further and touches
// no counter at all on the record path (internal/core).
//
// The counting rule: a count lives once. A count its owner bumps under
// its own lock lives in the owner's plain Stats, and /metrics reads it
// under that lock or from a copy published with it; a count bumped
// concurrently is a Counter, which Stats reads where it reports it. No
// count is mirrored into a second counter.
//
// The default registry also reads the Go runtime's accounting from
// runtime/metrics at scrape time (go_gc_cycles_total,
// go_gc_cpu_seconds_total, go_memstats_alloc_bytes_total,
// go_memstats_heap_live_bytes), so the allocator's share of a budget is
// readable from the running process.
//
// # Contract
//
//   - A Counter is exact under any number of concurrent writers, through
//     either entry point (TestCounterConcurrent, TestCounterShardRouting).
//   - A histogram snapshot's Count equals the sum of its buckets and never
//     decreases across snapshots (TestHistogramSnapshotConsistency,
//     TestHistogramBucketing, TestHistogramBoundsValidation).
//   - A Registry merges every source of a series into one sample
//     (TestRegistryMergeAcrossSources); Fold retires a closed source's
//     counters into process totals and drops its gauges, so
//     process-lifetime series stay monotonic across churn
//     (TestRegistryFoldRetiresCountersDropsGauges,
//     TestUnregisterDropsContribution).
//   - The Prometheus text has a TYPE before every sample and cumulative
//     histogram buckets closed by +Inf, _sum and _count
//     (TestPrometheusRendering).
//   - The counting rule holds for the gate, the tenant rows and the
//     store (TestOverloadSeriesReadGateStats, TestStoreSeriesReadStats),
//     and the server's series names are pinned by TestMetricsSeriesInventory.
package obs
