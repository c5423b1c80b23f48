package overload

import (
	"sort"
	"testing"
	"time"

	"btrace/internal/tracer"
)

// benchFilter measures the gate's per-event decision cost over batches
// of 64 and reports the p99 per-event latency as a custom "p99-ns"
// metric so benchdiff can gate regressions on the tail, not just the
// mean.
func benchFilter(b *testing.B, g *Gate) {
	const batch = 64
	src := make([]tracer.Entry, batch)
	buf := make([]tracer.Entry, batch)
	for i := range src {
		src[i] = tracer.Entry{
			TID:      uint32(100 + i%8),
			Category: uint8(i % 4),
			Level:    uint8(1 + i%3),
			Payload:  make([]byte, 16),
		}
	}
	samples := make([]float64, 0, b.N)
	var stamp, ts uint64 = 1, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		for j := range buf {
			buf[j].Stamp = stamp
			buf[j].TS = ts
			stamp++
			ts += 500 // 0.5 µs of virtual time per event
		}
		start := time.Now()
		g.Filter(buf)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/batch)
	}
	b.StopTimer()
	sort.Float64s(samples)
	idx := len(samples) * 99 / 100
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	b.ReportMetric(samples[idx], "p99-ns")
}

// BenchmarkRecordUnderOverload compares the record path's gate cost
// unloaded against a full overload storm. The acceptance bound for the
// PR — storm p99 within 2× of baseline — is asserted by the chaos suite
// (TestChaosOverloadStorm); here the two sub-benchmarks emit the raw
// numbers into BENCH_obs.json so benchdiff can gate drift over time.
func BenchmarkRecordUnderOverload(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		// Quiet gate: no pressure, generous limits — every event admitted.
		g := NewGate(Config{RatePerSec: 1 << 30})
		benchFilter(b, g)
	})
	b.Run("storm", func(b *testing.B) {
		// Saturated gate: pressure pinned at 1 so sampling floors, tight
		// buckets (a burst of 64, refilled at 32/s) throttle, and the tier
		// machine escalates to category shedding — the expensive decision
		// paths all run.
		g := NewGate(Config{MinSampleRate: 0.1, RatePerSec: 32})
		pressurize(g, 1, 2*engageAfter)
		if g.Tier() != TierCategory {
			b.Fatalf("storm setup: tier %v", g.Tier())
		}
		// The smoothed pressure reaches 1 only after the evaluations
		// that would escalate to TierStream, which sheds every event
		// first: pin it where a long storm converges instead.
		g.ctl.smoothed = 1
		if n, _ := g.SampleRates(); n != 0.1 {
			b.Fatalf("storm setup: keep rate %v, want the 0.1 floor", n)
		}
		benchFilter(b, g)
	})
}
