package overload

import (
	"runtime"

	"btrace/internal/obs"
)

// gateObs mirrors the gate's Stats (plus the controller gauges) into
// obs primitives. The Gate is single-goroutine and keeps its stats as a
// plain struct; once per Filter/Evaluate it folds the accumulated
// deltas into these atomic counters so the /metrics scraper can read
// them concurrently without racing the pipeline.
//
// Like supObs in internal/collect, gateObs is allocated separately from
// the Gate and is what the registry's collector closure captures,
// keeping the Gate finalizable; the finalizer folds these counters into
// the retired totals.
type gateObs struct {
	seen     *obs.Counter
	admitted *obs.Counter

	sampledOut        *obs.Counter
	throttledCategory *obs.Counter
	shedCategory      *obs.Counter
	shedStream        *obs.Counter

	payloadShedEvents *obs.Counter
	payloadShedBytes  *obs.Counter

	evaluations     *obs.Counter
	tierEngagements *obs.Counter
	tierReleases    *obs.Counter

	// tier is the engaged shedding tier; pressureMilli and the two
	// rate gauges carry the controller's continuous outputs ×1000
	// (obs.Gauge is integral).
	tier             obs.Gauge
	pressureMilli    obs.Gauge
	sampleRateMilli  obs.Gauge
	sampleRateLowMil obs.Gauge
}

func newGateObs() *gateObs {
	return &gateObs{
		seen:              obs.NewCounter(1),
		admitted:          obs.NewCounter(1),
		sampledOut:        obs.NewCounter(1),
		throttledCategory: obs.NewCounter(1),
		shedCategory:      obs.NewCounter(1),
		shedStream:        obs.NewCounter(1),
		payloadShedEvents: obs.NewCounter(1),
		payloadShedBytes:  obs.NewCounter(1),
		evaluations:       obs.NewCounter(1),
		tierEngagements:   obs.NewCounter(1),
		tierReleases:      obs.NewCounter(1),
	}
}

// collect emits the gate's series. It runs under the registry lock and
// must not reference the Gate (see type comment).
func (o *gateObs) collect(e *obs.Emitter) {
	e.Counter("btrace_overload_seen_total", "events offered to the overload gate", o.seen.Load())
	e.Counter("btrace_overload_admitted_total", "events admitted by the overload gate", o.admitted.Load())
	e.Counter("btrace_overload_sampled_out_total", "events dropped by head sampling", o.sampledOut.Load())
	e.Counter("btrace_overload_throttled_category_total", "events dropped by a category token bucket", o.throttledCategory.Load())
	e.Counter("btrace_overload_shed_category_total", "events shed at the category tier", o.shedCategory.Load())
	e.Counter("btrace_overload_shed_stream_total", "events shed at the stream tier", o.shedStream.Load())
	e.Counter("btrace_overload_payload_shed_events_total", "admitted events whose payload was stripped", o.payloadShedEvents.Load())
	e.Counter("btrace_overload_payload_shed_bytes_total", "payload bytes stripped at the payload tier", o.payloadShedBytes.Load())
	e.Counter("btrace_overload_evaluations_total", "controller pressure evaluations", o.evaluations.Load())
	e.Counter("btrace_overload_tier_engagements_total", "shed tier escalations", o.tierEngagements.Load())
	e.Counter("btrace_overload_tier_releases_total", "shed tier releases", o.tierReleases.Load())
	e.Gauge("btrace_overload_shed_tier", "engaged shedding tier (0 none, 1 payload, 2 category, 3 stream)", float64(o.tier.Load()))
	e.Gauge("btrace_overload_pressure", "smoothed pressure score", float64(o.pressureMilli.Load())/1000)
	e.Gauge("btrace_overload_sample_rate", "current keep rate for normal-priority events", float64(o.sampleRateMilli.Load())/1000)
	e.Gauge("btrace_overload_sample_rate_low", "current keep rate for low-priority events", float64(o.sampleRateLowMil.Load())/1000)
	e.Gauge("btrace_overload_gates", "live overload gates", 1)
}

// publishObs folds the stat deltas accumulated since the last publish
// into the process-wide counters and refreshes the controller gauges.
// Called once per Filter and per Evaluate — never per event.
func (g *Gate) publishObs() {
	o := g.obs
	cur, last := g.stats, g.published
	o.seen.Add(cur.Seen - last.Seen)
	o.admitted.Add(cur.Admitted - last.Admitted)
	o.sampledOut.Add(cur.SampledOut - last.SampledOut)
	o.throttledCategory.Add(cur.ThrottledCategory - last.ThrottledCategory)
	o.shedCategory.Add(cur.ShedCategory - last.ShedCategory)
	o.shedStream.Add(cur.ShedStream - last.ShedStream)
	o.payloadShedEvents.Add(cur.PayloadShedEvents - last.PayloadShedEvents)
	o.payloadShedBytes.Add(cur.PayloadShedBytes - last.PayloadShedBytes)
	o.evaluations.Add(cur.Evaluations - last.Evaluations)
	o.tierEngagements.Add(cur.TierEngagements - last.TierEngagements)
	o.tierReleases.Add(cur.TierReleases - last.TierReleases)
	g.published = cur

	o.tier.Set(int64(g.ctl.tier))
	o.pressureMilli.Set(int64(g.ctl.smoothed * 1000))
	normal, low := g.SampleRates()
	o.sampleRateMilli.Set(int64(normal * 1000))
	o.sampleRateLowMil.Set(int64(low * 1000))
}

// registerObs wires the gate's counters into the process-wide registry;
// the finalizer folds them into the retired totals when the Gate
// becomes unreachable. The collector closure captures only the
// counters, never g, so registration does not defeat the finalizer.
func (g *Gate) registerObs() {
	reg := obs.Default()
	id := reg.Register(g.obs.collect)
	runtime.SetFinalizer(g, func(*Gate) { reg.Fold(id) })
}
