package overload

import (
	"math"
	"testing"

	"btrace/internal/tracer"
)

// TestGateProductionTuning pins the gate btrace-serve builds from its
// default flags (-sample-rate 0.05, -shed, no -rate-limit): every
// threshold, streak length, smoothing coefficient and burst it runs
// with, none of them set by the test.
func TestGateProductionTuning(t *testing.T) {
	prod := Config{MinSampleRate: 0.05}

	t.Run("engage", func(t *testing.T) {
		g := NewGate(prod)
		// 0.75 is hot: the third consecutive one engages, and each
		// further tier takes three more.
		for _, want := range []Tier{TierPayload, TierCategory, TierStream} {
			pressurize(g, 0.75, 2)
			if g.Tier() != want-1 {
				t.Fatalf("after 2 hot evaluations toward %v: tier %v", want, g.Tier())
			}
			pressurize(g, 0.75, 1)
			if g.Tier() != want {
				t.Fatalf("after 3 hot evaluations: tier %v, want %v", g.Tier(), want)
			}
		}
		if s := g.Stats(); s.TierEngagements != 3 || s.Evaluations != 9 {
			t.Fatalf("stats after 9 hot evaluations: %+v", s)
		}
	})

	t.Run("release", func(t *testing.T) {
		g := NewGate(prod)
		pressurize(g, 1, 9)
		if g.Tier() != TierStream {
			t.Fatalf("setup: tier %v", g.Tier())
		}
		// 0.35 is cool: the eighth consecutive one releases a tier.
		for _, want := range []Tier{TierCategory, TierPayload, TierNone} {
			pressurize(g, 0.35, 7)
			if g.Tier() != want+1 {
				t.Fatalf("after 7 cool evaluations toward %v: tier %v", want, g.Tier())
			}
			pressurize(g, 0.35, 1)
			if g.Tier() != want {
				t.Fatalf("after 8 cool evaluations: tier %v, want %v", g.Tier(), want)
			}
		}
	})

	t.Run("band resets both streaks", func(t *testing.T) {
		for _, band := range []float64{0.36, 0.5, 0.74} {
			g := NewGate(prod)
			pressurize(g, 0.75, 2)
			pressurize(g, band, 1)
			pressurize(g, 0.75, 2)
			if g.Tier() != TierNone {
				t.Fatalf("band %v: hot streak survived it, tier %v", band, g.Tier())
			}
			pressurize(g, 0.75, 1)
			if g.Tier() != TierPayload {
				t.Fatalf("band %v: 3 hot evaluations after it: tier %v", band, g.Tier())
			}
			pressurize(g, 0.35, 7)
			pressurize(g, band, 1)
			pressurize(g, 0.35, 7)
			if g.Tier() != TierPayload {
				t.Fatalf("band %v: cool streak survived it, tier %v", band, g.Tier())
			}
			pressurize(g, 0.35, 1)
			if g.Tier() != TierNone {
				t.Fatalf("band %v: 8 cool evaluations after it: tier %v", band, g.Tier())
			}
		}
	})

	t.Run("sample rates", func(t *testing.T) {
		const eps = 1e-12
		// want is the production curve: 1 up to smoothed pressure 0.5,
		// then linear down to the 0.05 floor at 1; low priority twice as
		// steep, floored alike.
		want := func(p float64, low bool) float64 {
			if p <= 0.5 {
				return 1
			}
			x := (p - 0.5) / 0.5
			if low {
				x *= 2
			}
			return math.Max(0.05, 1-x*0.95)
		}
		g := NewGate(prod)
		smoothed := 0.0
		for _, score := range []float64{0.4, 1, 1, 0.2, 1, 1, 1, 1, 0.6, 1} {
			g.Evaluate(at(score))
			smoothed += 0.5 * (score - smoothed)
			if math.Abs(g.Pressure()-smoothed) > eps {
				t.Fatalf("score %v: smoothed pressure %v, want %v (α = 0.5)", score, g.Pressure(), smoothed)
			}
			n, l := g.SampleRates()
			if math.Abs(n-want(smoothed, false)) > eps || math.Abs(l-want(smoothed, true)) > eps {
				t.Fatalf("pressure %v: rates %v/%v, want %v/%v",
					smoothed, n, l, want(smoothed, false), want(smoothed, true))
			}
		}
		// Fixed points of the curve.
		g = NewGate(prod)
		pressurize(g, 1, 1) // smoothed 0.5: the knee
		if n, l := g.SampleRates(); n != 1 || l != 1 {
			t.Fatalf("at the knee: rates %v/%v, want 1/1", n, l)
		}
		pressurize(g, 1, 1) // smoothed 0.75: low priority already floors
		if n, l := g.SampleRates(); math.Abs(n-0.525) > eps || math.Abs(l-0.05) > eps {
			t.Fatalf("at 0.75: rates %v/%v, want 0.525/0.05", n, l)
		}
		pressurize(g, 1, 60)
		if n, l := g.SampleRates(); math.Abs(n-0.05) > eps || math.Abs(l-0.05) > eps {
			t.Fatalf("at 1: rates %v/%v, want the 0.05 floor", n, l)
		}
	})

	t.Run("category burst", func(t *testing.T) {
		for _, tc := range []struct {
			rate  float64
			burst int
		}{{1000, 2000}, {3, 6}, {0.25, 1}} {
			cfg := prod
			cfg.RatePerSec = tc.rate
			g := NewGate(cfg)
			es := make([]tracer.Entry, 3000)
			for i := range es {
				es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1_000_000, TID: 1, Category: 9, Level: 1}
			}
			if out := g.Filter(es); len(out) != tc.burst {
				t.Fatalf("rate %v: one instant admitted %d, want a burst of %d", tc.rate, len(out), tc.burst)
			}
		}
	})
}
