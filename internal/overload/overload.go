package overload

import (
	"btrace/internal/tracer"
)

// Tier is the load-shedding escalation level.
type Tier uint8

// Shedding tiers, in engagement order. Each tier includes the measures
// of the tiers below it.
const (
	// TierNone sheds nothing; sampling and rate limits still apply.
	TierNone Tier = iota
	// TierPayload strips payload bytes from admitted events: the event
	// (header, stamp, identity) survives, its body does not.
	TierPayload
	// TierCategory drops low-priority events entirely.
	TierCategory
	// TierStream drops whole streams: every event is shed. This is the
	// full-drop tier a readiness probe should report as not-ready.
	TierStream
)

// String returns the tier's short name.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierPayload:
		return "payload"
	case TierCategory:
		return "category"
	default:
		return "stream"
	}
}

// StorePressure is the durable store's write-path signals, the gate's
// one pressure input: recent latencies and the sticky failure bit
// (store.Store.Pressure exports it).
type StorePressure struct {
	// AppendNs is a recent average (EWMA) of append latency per event.
	AppendNs uint64
	// FsyncNs is a recent average (EWMA) of fsync latency.
	FsyncNs uint64
	// Failed reports a sticky write-path failure: the store accepts no
	// more appends until reopened.
	Failed bool
}

// The latency budgets the store's signals normalize against: a latency
// at budget reads as pressure 1.0. The append budget is per event.
const (
	appendBudgetNs = 1_000_000
	fsyncBudgetNs  = 20_000_000
)

// score collapses the store's signals to a scalar in [0, 1]: the worst
// signal wins, because any single saturated resource is overload
// regardless of how idle the others are.
func (p StorePressure) score() float64 {
	s := float64(p.AppendNs) / appendBudgetNs
	if v := float64(p.FsyncNs) / fsyncBudgetNs; v > s {
		s = v
	}
	if p.Failed || s > 1 {
		s = 1
	}
	return s
}

// lowPriority reports whether an event is shed at TierCategory and
// sampled at the faster-decaying low rate: detail level ≥ 3, the
// paper's most verbose level.
func lowPriority(level uint8) bool { return level >= 3 }

// Config configures a Gate. Zero values select the documented defaults.
type Config struct {
	// MinSampleRate is the floor the controller may drive per-category
	// keep rates down to under full pressure (default 0.05; 1 disables
	// dynamic sampling entirely).
	MinSampleRate float64
	// SampleStart is the smoothed pressure at which keep rates begin to
	// fall below 1.0 (default 0.5).
	SampleStart float64

	// RatePerSec is the per-category token refill rate in events per
	// second of virtual time (0 = no category rate limit).
	RatePerSec float64
	// Burst is the per-category bucket capacity (default 2×RatePerSec,
	// minimum 1).
	Burst float64

	// EngagePressure is the score at or above which an evaluation counts
	// toward escalation (default 0.75).
	EngagePressure float64
	// DisengagePressure is the score at or below which an evaluation
	// counts toward release (default 0.35). Scores between the two
	// thresholds hold the current tier — that band is the hysteresis.
	DisengagePressure float64
	// EngageAfter is the number of consecutive hot evaluations required
	// per tier escalation (default 3).
	EngageAfter int
	// CooldownEvals is the number of consecutive cool evaluations
	// required per tier release (default 8). Releases are deliberately
	// slower than engagements: shedding too little wedges the system,
	// shedding too long only costs detail.
	CooldownEvals int
	// Smoothing is the EWMA coefficient applied to the pressure score
	// before it drives sampling rates, in (0, 1] (default 0.5; 1 =
	// unsmoothed).
	Smoothing float64
}

func (c Config) withDefaults() Config {
	if c.MinSampleRate <= 0 {
		c.MinSampleRate = 0.05
	}
	if c.MinSampleRate > 1 {
		c.MinSampleRate = 1
	}
	if c.SampleStart <= 0 {
		c.SampleStart = 0.5
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.RatePerSec > 0 && c.Burst < 1 {
		c.Burst = 1
	}
	if c.EngagePressure <= 0 {
		c.EngagePressure = 0.75
	}
	if c.DisengagePressure <= 0 {
		c.DisengagePressure = 0.35
	}
	if c.DisengagePressure >= c.EngagePressure {
		c.DisengagePressure = c.EngagePressure / 2
	}
	if c.EngageAfter <= 0 {
		c.EngageAfter = 3
	}
	if c.CooldownEvals <= 0 {
		c.CooldownEvals = 8
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		c.Smoothing = 0.5
	}
	return c
}

// Stats counts every decision the gate made. The accounting identity
//
//	Seen == Admitted + SampledOut + ThrottledCategory + ShedCategory
//	        + ShedStream
//
// holds exactly after every Filter call.
type Stats struct {
	Seen     uint64 // events offered to the gate
	Admitted uint64 // events passed through (possibly payload-stripped)

	SampledOut        uint64 // events dropped by head sampling
	ThrottledCategory uint64 // events dropped by a category token bucket
	ShedCategory      uint64 // events dropped at TierCategory
	ShedStream        uint64 // events dropped at TierStream

	PayloadShedEvents uint64 // admitted events whose payload was stripped
	PayloadShedBytes  uint64 // payload bytes stripped at TierPayload

	Evaluations     uint64 // controller evaluations
	TierEngagements uint64 // tier escalations (t → t+1)
	TierReleases    uint64 // tier releases (t → t−1)
}

// Gate is the overload-control decision point. It is driven by one
// goroutine at a time and takes no lock: its owner serialises every
// call, Stats included.
type Gate struct {
	cfg Config
	ctl controller

	// sampleAcc accumulates per-category sampling credit (credit
	// sampling: acc += rate; admit and spend 1 when acc ≥ 1).
	sampleAcc [256]float64
	// catBuckets holds the per-category token buckets, allocated lazily.
	catBuckets [256]Bucket

	stats Stats
}

// NewGate creates a Gate.
func NewGate(cfg Config) *Gate {
	g := &Gate{cfg: cfg.withDefaults()}
	g.ctl.init(&g.cfg)
	return g
}

// Evaluate feeds one pressure observation — the store's, or the shard
// fleet's worst, write-path signals — to the controller: once per batch
// before Filter, and on a timer while no batch arrives.
func (g *Gate) Evaluate(p StorePressure) {
	g.stats.Evaluations++
	engaged, released := g.ctl.evaluate(p.score())
	if engaged {
		g.stats.TierEngagements++
	}
	if released {
		g.stats.TierReleases++
	}
}

// Tier returns the currently engaged shedding tier.
func (g *Gate) Tier() Tier { return g.ctl.tier }

// Pressure returns the smoothed pressure score that drives the sampling
// rates.
func (g *Gate) Pressure() float64 { return g.ctl.smoothed }

// SampleRates returns the current keep rates for normal- and
// low-priority events.
func (g *Gate) SampleRates() (normal, low float64) {
	return g.sampleRate(false), g.sampleRate(true)
}

// Stats returns a snapshot of the gate's counters.
func (g *Gate) Stats() Stats { return g.stats }

// sampleRate maps smoothed pressure to a keep rate in
// [MinSampleRate, 1]. Low-priority events decay twice as fast: the
// first detail to give up is the detail worth the least.
func (g *Gate) sampleRate(low bool) float64 {
	p := g.ctl.smoothed
	start := g.cfg.SampleStart
	if p <= start {
		return 1
	}
	x := (p - start) / (1 - start)
	if low {
		x *= 2
	}
	r := 1 - x*(1-g.cfg.MinSampleRate)
	if r < g.cfg.MinSampleRate {
		r = g.cfg.MinSampleRate
	}
	return r
}

// Filter applies the gate to one verified batch, in place: the returned
// slice aliases es. Every event is counted exactly once — admitted or
// attributed to the specific mechanism that refused it.
func (g *Gate) Filter(es []tracer.Entry) []tracer.Entry {
	if len(es) == 0 {
		return es
	}
	tier := g.ctl.tier
	out := es[:0]
	for i := range es {
		e := &es[i]
		g.stats.Seen++
		if tier >= TierStream {
			g.stats.ShedStream++
			continue
		}
		if tier >= TierCategory && lowPriority(e.Level) {
			g.stats.ShedCategory++
			continue
		}
		if !g.sampleAdmit(e) {
			g.stats.SampledOut++
			continue
		}
		if g.cfg.RatePerSec > 0 &&
			!g.catBuckets[e.Category].Take(e.TS, g.cfg.RatePerSec, g.cfg.Burst) {
			g.stats.ThrottledCategory++
			continue
		}
		if tier >= TierPayload && len(e.Payload) > 0 {
			g.stats.PayloadShedEvents++
			g.stats.PayloadShedBytes += uint64(len(e.Payload))
			e.Payload = nil
		}
		g.stats.Admitted++
		out = append(out, *e)
	}
	return out
}

// sampleAdmit draws the head-sampling decision for e via the
// per-category credit accumulator: deterministic, and exact over any
// window (rate r admits ⌈r·n⌉ of n events).
func (g *Gate) sampleAdmit(e *tracer.Entry) bool {
	r := g.sampleRate(lowPriority(e.Level))
	if r >= 1 {
		return true
	}
	acc := g.sampleAcc[e.Category] + r
	if acc >= 1 {
		g.sampleAcc[e.Category] = acc - 1
		return true
	}
	g.sampleAcc[e.Category] = acc
	return false
}
