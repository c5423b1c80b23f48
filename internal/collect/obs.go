package collect

import (
	"runtime"

	"btrace/internal/obs"
)

// supObs mirrors SupervisorStats (plus the health gauges) into obs
// primitives. A pipeline is single-goroutine and keeps its stats as a
// plain struct; once per step it folds the accumulated deltas into
// these atomic counters (statsMirror.publish) so the /metrics scraper
// can read them concurrently without racing the pipeline.
//
// Like bufCounters in internal/core, supObs is allocated separately from
// its owner and is what the registry's collector closure captures,
// keeping the owner finalizable; the finalizer folds these counters
// into the retired totals.
type supObs struct {
	polls            *obs.Counter
	pollErrors       *obs.Counter
	pollBackoffSteps *obs.Counter
	eventsMissed     *obs.Counter

	dumps              *obs.Counter
	dumpsWritten       *obs.Counter
	sinkErrors         *obs.Counter
	sinkBackoff        *obs.Counter
	spilled            *obs.Counter
	spillDropped       *obs.Counter
	spillDroppedEvents *obs.Counter

	grows   *obs.Counter
	shrinks *obs.Counter

	quarantined     *obs.Counter
	wedgeDetections *obs.Counter

	pendingDumps obs.Gauge
	spilledDumps obs.Gauge
	sourceWedged obs.Gauge
	sinkFailed   obs.Gauge
}

func newSupObs() *supObs {
	return &supObs{
		polls:              obs.NewCounter(1),
		pollErrors:         obs.NewCounter(1),
		pollBackoffSteps:   obs.NewCounter(1),
		eventsMissed:       obs.NewCounter(1),
		dumps:              obs.NewCounter(1),
		dumpsWritten:       obs.NewCounter(1),
		sinkErrors:         obs.NewCounter(1),
		sinkBackoff:        obs.NewCounter(1),
		spilled:            obs.NewCounter(1),
		spillDropped:       obs.NewCounter(1),
		spillDroppedEvents: obs.NewCounter(1),
		grows:              obs.NewCounter(1),
		shrinks:            obs.NewCounter(1),
		quarantined:        obs.NewCounter(1),
		wedgeDetections:    obs.NewCounter(1),
	}
}

// addDeltas folds the difference between the current and the previously
// published stats into the counters. Stats fields are monotonic, so
// plain subtraction is safe.
func (o *supObs) addDeltas(cur, last SupervisorStats) {
	o.polls.Add(cur.Polls - last.Polls)
	o.pollErrors.Add(cur.PollErrors - last.PollErrors)
	o.pollBackoffSteps.Add(cur.PollBackoffSteps - last.PollBackoffSteps)
	o.eventsMissed.Add(cur.EventsMissed - last.EventsMissed)
	o.dumps.Add(cur.Dumps - last.Dumps)
	o.dumpsWritten.Add(cur.DumpsWritten - last.DumpsWritten)
	o.sinkErrors.Add(cur.SinkErrors - last.SinkErrors)
	o.sinkBackoff.Add(cur.SinkBackoff - last.SinkBackoff)
	o.spilled.Add(cur.Spilled - last.Spilled)
	o.spillDropped.Add(cur.SpillDropped - last.SpillDropped)
	o.spillDroppedEvents.Add(cur.SpillDroppedEvents - last.SpillDroppedEvents)
	o.grows.Add(cur.Grows - last.Grows)
	o.shrinks.Add(cur.Shrinks - last.Shrinks)
	o.quarantined.Add(cur.Quarantined - last.Quarantined)
	o.wedgeDetections.Add(cur.WedgeDetections - last.WedgeDetections)
}

// collect emits the supervisor's series. It runs under the registry lock
// and must not reference the Supervisor (see type comment).
func (o *supObs) collect(e *obs.Emitter) {
	e.Counter("btrace_collect_polls_total", "successful source polls", o.polls.Load())
	e.Counter("btrace_collect_poll_errors_total", "failed source polls", o.pollErrors.Load())
	e.Counter("btrace_collect_poll_backoff_steps_total", "steps skipped waiting out poll backoff", o.pollBackoffSteps.Load())
	e.Counter("btrace_collect_missed_events_total", "events lost to overwrite between polls", o.eventsMissed.Load())
	e.Counter("btrace_collect_dumps_total", "dumps produced by triggers", o.dumps.Load())
	e.Counter("btrace_collect_dumps_written_total", "dumps fully delivered to the sink", o.dumpsWritten.Load())
	e.Counter("btrace_collect_sink_errors_total", "failed sink writes", o.sinkErrors.Load())
	e.Counter("btrace_collect_sink_backoff_steps_total", "steps skipped waiting out sink backoff", o.sinkBackoff.Load())
	e.Counter("btrace_collect_spilled_total", "dumps diverted to the in-memory spill ring", o.spilled.Load())
	e.Counter("btrace_collect_spill_dropped_total", "spilled dumps evicted and lost", o.spillDropped.Load())
	e.Counter("btrace_collect_spill_dropped_events_total", "events inside dropped spill dumps", o.spillDroppedEvents.Load())
	e.Counter("btrace_collect_grows_total", "adaptive buffer grow operations", o.grows.Load())
	e.Counter("btrace_collect_shrinks_total", "adaptive buffer shrink operations", o.shrinks.Load())
	e.Counter("btrace_collect_quarantined_total", "entries rejected by the verifier", o.quarantined.Load())
	e.Counter("btrace_collect_wedge_detections_total", "times the self-watchdog declared the source wedged", o.wedgeDetections.Load())
	e.Gauge("btrace_collect_pending_dumps", "dumps awaiting sink delivery", float64(o.pendingDumps.Load()))
	e.Gauge("btrace_collect_spilled_dumps", "dumps held in the spill ring", float64(o.spilledDumps.Load()))
	e.Gauge("btrace_collect_source_wedged", "1 while the self-watchdog declares the source wedged", float64(o.sourceWedged.Load()))
	e.Gauge("btrace_collect_sink_failed", "1 while the sink is in permanent failure", float64(o.sinkFailed.Load()))
	e.Gauge("btrace_collect_supervisors", "live supervised pipelines", 1)
}

// statsMirror publishes one Supervisor's SupervisorStats and
// HealthReport as the btrace_collect_* series of the process-wide
// registry. publish is for the pipeline's single goroutine.
type statsMirror struct {
	obs       *supObs
	published SupervisorStats
}

// newStatsMirror registers a mirror; the finalizer folds its counters
// into the retired totals when the mirror (and so its owner) becomes
// unreachable. The collector closure captures only the counters, never
// the mirror, so registration does not defeat the finalizer.
func newStatsMirror() *statsMirror {
	m := &statsMirror{obs: newSupObs()}
	reg := obs.Default()
	id := reg.Register(m.obs.collect)
	runtime.SetFinalizer(m, func(*statsMirror) { reg.Fold(id) })
	return m
}

// publish folds the stat deltas accumulated since the last call into
// the counters and refreshes the health gauges. Once per step — the
// pipeline's slow path, never the per-event path.
func (m *statsMirror) publish(cur SupervisorStats, h HealthReport) {
	o := m.obs
	o.addDeltas(cur, m.published)
	m.published = cur
	o.pendingDumps.Set(int64(h.PendingDumps))
	o.spilledDumps.Set(int64(h.SpilledDumps))
	o.sourceWedged.SetBool(h.SourceWedged)
	o.sinkFailed.SetBool(h.SinkFailed)
}
