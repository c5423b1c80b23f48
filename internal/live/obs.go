package live

import (
	"runtime"

	"btrace/internal/obs"
)

// hubObs carries the hub's process-wide series. Unlike the gate's obs
// mirror (which folds single-goroutine stats once per Filter), the hub
// is concurrent already, so Publish/Next update these sharded atomic
// counters directly. Allocated separately from the Hub so the registry
// closure never captures the Hub and the finalizer can fold the series
// when the Hub becomes unreachable.
type hubObs struct {
	published   *obs.Counter // events offered to the hub (admitted batches)
	matched     *obs.Counter // events matching some subscriber's filter
	delivered   *obs.Counter // events handed to subscribers via Next
	missed      *obs.Counter // matched events lost to overwrite/eviction
	subscribed  *obs.Counter // subscriptions accepted
	rejected    *obs.Counter // subscriptions refused at the cap
	evictedSubs *obs.Counter // subscribers evicted for falling behind
	sseBytes    *obs.Counter // bytes subscribers' streams wrote (Sub.CountWrite)
	sseWrites   *obs.Counter // socket writes those bytes went out in

	subscribers obs.Gauge // currently attached subscribers
}

func newHubObs() *hubObs {
	return &hubObs{
		published:   obs.NewCounter(0),
		matched:     obs.NewCounter(0),
		delivered:   obs.NewCounter(0),
		missed:      obs.NewCounter(0),
		subscribed:  obs.NewCounter(0),
		rejected:    obs.NewCounter(0),
		evictedSubs: obs.NewCounter(0),
		sseBytes:    obs.NewCounter(0),
		sseWrites:   obs.NewCounter(0),
	}
}

// collect emits the hub's series; runs under the registry lock and
// must not reference the Hub (see type comment).
func (o *hubObs) collect(e *obs.Emitter) {
	e.Counter("btrace_live_published_total", "admitted events offered to the live hub", o.published.Load())
	e.Counter("btrace_live_matched_total", "published events matching a subscriber filter", o.matched.Load())
	e.Counter("btrace_live_delivered_total", "events delivered to live subscribers", o.delivered.Load())
	e.Counter("btrace_live_missed_total", "matched events lost to ring overwrite or eviction", o.missed.Load())
	e.Counter("btrace_live_subscriptions_total", "live subscriptions accepted", o.subscribed.Load())
	e.Counter("btrace_live_rejected_total", "live subscriptions refused at the subscriber cap", o.rejected.Load())
	e.Counter("btrace_live_evicted_total", "live subscribers evicted for falling behind", o.evictedSubs.Load())
	e.Counter("btrace_live_sse_bytes_total", "bytes written to /live streams", o.sseBytes.Load())
	e.Counter("btrace_live_sse_writes_total", "socket writes on /live streams (one per non-empty drain or keepalive)", o.sseWrites.Load())
	e.Gauge("btrace_live_subscribers", "currently attached live subscribers", float64(o.subscribers.Load()))
}

// registerObs wires the hub's series into the process-wide registry;
// the finalizer folds them into retired totals when the Hub goes away.
func (h *Hub) registerObs() {
	reg := obs.Default()
	id := reg.Register(h.obs.collect)
	runtime.SetFinalizer(h, func(*Hub) { reg.Fold(id) })
}
