package btrace

import (
	"io"
	"net/http"

	"btrace/internal/obs"
)

// MetricsSnapshot is a consistent, name-sorted view of every metric
// series the process's BTrace subsystems expose: block lifecycle
// counters from each open tracer (btrace_core_*) and durable stores
// (btrace_store_*), and in a trace server the admission verifier's
// quarantine count (btrace_collect_quarantined_total), the single-store
// ingest path (btrace_ingest_*), the overload gate (btrace_overload_*)
// and the shard ring (btrace_distributor_*).
// Multiple instances of one subsystem merge by summing; instances that
// have been closed or collected keep contributing their final counter
// totals, so the series are process-lifetime monotonic.
type MetricsSnapshot = obs.Snapshot

// MetricSample is one series in a MetricsSnapshot.
type MetricSample = obs.Sample

// Metrics returns a snapshot of every BTrace metric series in the
// process. Use MetricsSnapshot.Get/Value for programmatic access and
// WriteMetrics for the Prometheus text form.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// WriteMetrics renders the current metrics in the Prometheus text
// exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// MetricsHandler returns an http.Handler serving the Prometheus text
// form — mount it at /metrics to scrape a process that embeds BTrace.
func MetricsHandler() http.Handler { return obs.Default().Handler() }
