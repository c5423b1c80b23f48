package overload

import (
	"math"
	"math/rand"
	"testing"

	"btrace/internal/tracer"
)

// mkBatch builds n well-formed entries: stamps/timestamps increase
// monotonically from start, categories cycle through cats, levels cycle
// 1..3, each with a payload of payload bytes.
func mkBatch(start uint64, n int, stepNs uint64, cats []uint8, payload int) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		es[i] = tracer.Entry{
			Stamp:    start + uint64(i),
			TS:       start*stepNs + uint64(i)*stepNs,
			TID:      uint32(100 + i%4),
			Category: cats[i%len(cats)],
			Level:    uint8(1 + i%3),
		}
		if payload > 0 {
			es[i].Payload = make([]byte, payload)
		}
	}
	return es
}

// at is the pressure observation whose score is s (an append latency
// per event against its budget; scores above 1 clamp).
func at(s float64) StorePressure {
	return StorePressure{AppendNs: uint64(math.Round(s * appendBudgetNs))}
}

// pressurize drives the controller with a constant score for n
// evaluations.
func pressurize(g *Gate, score float64, n int) {
	for i := 0; i < n; i++ {
		g.Evaluate(at(score))
	}
}

func checkIdentity(t *testing.T, s Stats) {
	t.Helper()
	if got := s.Admitted + s.SampledOut + s.ThrottledCategory + s.ShedCategory + s.ShedStream; got != s.Seen {
		t.Fatalf("accounting identity broken: seen=%d admitted=%d sampled=%d thrCat=%d shedCat=%d shedStream=%d (sum %d)",
			s.Seen, s.Admitted, s.SampledOut, s.ThrottledCategory, s.ShedCategory, s.ShedStream, got)
	}
}

// TestNoPressurePassesEverything: an unpressured gate with no rate
// limits is a no-op that still counts.
func TestNoPressurePassesEverything(t *testing.T) {
	g := NewGate(Config{})
	es := mkBatch(1, 300, 1000, []uint8{1, 2, 3}, 16)
	out := g.Filter(es)
	if len(out) != 300 {
		t.Fatalf("admitted %d of 300", len(out))
	}
	s := g.Stats()
	if s.Seen != 300 || s.Admitted != 300 || s.PayloadShedEvents != 0 {
		t.Fatalf("stats: %+v", s)
	}
	checkIdentity(t, s)
	if n, l := g.SampleRates(); n != 1 || l != 1 {
		t.Fatalf("rates under no pressure: %v %v", n, l)
	}
}

// TestSamplingCreditExactness: the credit accumulator admits exactly
// ⌈r·n⌉ events per category, evenly spread — not a noisy approximation.
func TestSamplingCreditExactness(t *testing.T) {
	// Saturate pressure so the rate floors at MinSampleRate for every
	// priority class: the smoothed pressure reaches 1 within 60
	// evaluations. The gate sheds nothing (-shed=false), so the tier
	// stays TierNone.
	g := NewGate(Config{MinSampleRate: 0.25, EngagePressure: 2})
	pressurize(g, 1, 60)
	if n, l := g.SampleRates(); n != 0.25 || l != 0.25 {
		t.Fatalf("rates at full pressure: %v %v (want 0.25 floor)", n, l)
	}
	es := mkBatch(1, 400, 1000, []uint8{7}, 0)
	out := g.Filter(es)
	if len(out) != 100 {
		t.Fatalf("rate 0.25 over 400 events admitted %d, want exactly 100", len(out))
	}
	// Evenly spread: no run of 8 consecutive admissions or droughts of
	// more than 4 between admissions.
	for i := 1; i < len(out); i++ {
		if gap := out[i].Stamp - out[i-1].Stamp; gap != 4 {
			t.Fatalf("uneven sampling: gap %d between admitted stamps", gap)
		}
	}
	checkIdentity(t, g.Stats())
}

// TestSampleRateScalesWithPressure: rates sit at 1 below sampleStart,
// fall continuously above it, and low-priority decays faster.
func TestSampleRateScalesWithPressure(t *testing.T) {
	g := NewGate(Config{MinSampleRate: 0.1})
	pressurize(g, 1, 1) // smoothed 0.5
	if n, l := g.SampleRates(); n != 1 || l != 1 {
		t.Fatalf("at sampleStart rates should be 1: %v %v", n, l)
	}
	pressurize(g, 1, 1) // smoothed 0.75
	n, l := g.SampleRates()
	if !(n < 1 && n > 0.1) || !(l < n) {
		t.Fatalf("mid-pressure rates: normal %v low %v", n, l)
	}
	pressurize(g, 1, 60)
	if n, _ := g.SampleRates(); n != 0.1 {
		t.Fatalf("full-pressure rate %v, want floor 0.1", n)
	}
}

// TestCategoryTokenBucket: the per-category bucket admits the burst,
// throttles the excess, and refills on virtual time.
func TestCategoryTokenBucket(t *testing.T) {
	g := NewGate(Config{RatePerSec: 5})
	// 100 events at the same virtual instant: the burst of 2×5 admits 10.
	es := make([]tracer.Entry, 100)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1_000_000, TID: 1, Category: 5, Level: 1}
	}
	out := g.Filter(es)
	if len(out) != 10 {
		t.Fatalf("burst 10 admitted %d", len(out))
	}
	if s := g.Stats(); s.ThrottledCategory != 90 {
		t.Fatalf("throttled %d, want 90", s.ThrottledCategory)
	}
	// 200 ms of virtual time refills one token at 5/s.
	one := []tracer.Entry{{Stamp: 1000, TS: 201_000_000, TID: 1, Category: 5, Level: 1}}
	if out := g.Filter(one); len(out) != 1 {
		t.Fatal("refilled token not granted")
	}
	// An out-of-order (older) event must not refill the bucket.
	old := []tracer.Entry{
		{Stamp: 1001, TS: 101_000_000, TID: 1, Category: 5, Level: 1},
		{Stamp: 1002, TS: 101_000_000, TID: 1, Category: 5, Level: 1},
	}
	if out := g.Filter(old); len(out) != 0 {
		t.Fatalf("out-of-order events refilled the bucket: %d admitted", len(out))
	}
	checkIdentity(t, g.Stats())
}

// forceTier escalates the controller to the requested tier.
func forceTier(t *testing.T, g *Gate, want Tier) {
	t.Helper()
	for i := 0; i < 100 && g.Tier() < want; i++ {
		g.Evaluate(at(1))
	}
	if g.Tier() != want {
		t.Fatalf("could not reach tier %v (at %v)", want, g.Tier())
	}
}

// TestShedTiersInOrder: payload stripping, then low-priority drops,
// then every event.
func TestShedTiersInOrder(t *testing.T) {
	// 120 events with levels cycling 1..3: 40 of them low priority.
	mk := func() []tracer.Entry {
		return mkBatch(1, 120, 1000, []uint8{1, 2, 3}, 8)
	}

	g := NewGate(Config{MinSampleRate: 1})
	forceTier(t, g, TierPayload)
	out := g.Filter(mk())
	if len(out) != 120 {
		t.Fatalf("payload tier dropped events: %d of 120", len(out))
	}
	if s := g.Stats(); s.PayloadShedEvents != 120 || s.PayloadShedBytes != 120*8 {
		t.Fatalf("payload shed accounting: %+v", s)
	}
	for _, e := range out {
		if e.Payload != nil {
			t.Fatal("a payload survived the payload tier")
		}
	}

	forceTier(t, g, TierCategory)
	out = g.Filter(mk())
	if len(out) != 80 {
		t.Fatalf("category tier admitted %d, want 80 (120 − 40 low-priority)", len(out))
	}
	if shed := g.Stats().ShedCategory; shed != 40 {
		t.Fatalf("category tier shed %d, want 40", shed)
	}
	for _, e := range out {
		if e.Level >= 3 {
			t.Fatal("low-priority event survived the category tier")
		}
	}

	forceTier(t, g, TierStream)
	if out = g.Filter(mk()); len(out) != 0 {
		t.Fatalf("stream tier admitted %d events, want none", len(out))
	}
	if shed := g.Stats().ShedStream; shed != 120 {
		t.Fatalf("stream tier shed %d, want 120", shed)
	}
	checkIdentity(t, g.Stats())
}

// TestHysteresisNoFlap is the controller's contract test: tiers engage
// only under sustained pressure, disengage only after the full
// cool-down, and a score oscillating around either threshold — or
// sitting inside the hysteresis band — never flaps the tier.
func TestHysteresisNoFlap(t *testing.T) {
	g := NewGate(Config{})

	// Two hot evaluations are not enough; the third engages.
	pressurize(g, 0.9, 2)
	if g.Tier() != TierNone {
		t.Fatalf("engaged after 2 hot evals (want 3): %v", g.Tier())
	}
	pressurize(g, 0.9, 1)
	if g.Tier() != TierPayload {
		t.Fatalf("tier after 3 hot evals: %v, want payload", g.Tier())
	}

	// A dip into the band resets the hot streak: 2 hot + band + 2 hot
	// stays at the current tier.
	pressurize(g, 0.9, 2)
	pressurize(g, 0.5, 1)
	pressurize(g, 0.9, 2)
	if g.Tier() != TierPayload {
		t.Fatalf("band dip failed to reset hot streak: %v", g.Tier())
	}

	// Sustained heat escalates one tier at a time up to the cap.
	pressurize(g, 0.9, 3)
	if g.Tier() != TierCategory {
		t.Fatalf("second escalation: %v", g.Tier())
	}
	pressurize(g, 0.9, 30)
	if g.Tier() != TierStream {
		t.Fatalf("tier cap: %v", g.Tier())
	}

	// Oscillation across the engage threshold and back into the band
	// must hold the tier steady — no flapping.
	for i := 0; i < 20; i++ {
		pressurize(g, 0.9, 1)
		pressurize(g, 0.5, 1)
	}
	if g.Tier() != TierStream {
		t.Fatalf("flapped during oscillation: %v", g.Tier())
	}
	if rel := g.Stats().TierReleases; rel != 0 {
		t.Fatalf("released %d tiers during oscillation", rel)
	}

	// Cooling: 7 cool evaluations are not enough; the 8th releases one
	// tier. A hot blip restarts the cool-down from zero.
	pressurize(g, 0.1, cooldownEvals-1)
	if g.Tier() != TierStream {
		t.Fatalf("released before cool-down complete: %v", g.Tier())
	}
	pressurize(g, 0.9, 1) // blip
	pressurize(g, 0.1, cooldownEvals-1)
	if g.Tier() != TierStream {
		t.Fatalf("blip failed to restart cool-down: %v", g.Tier())
	}
	pressurize(g, 0.1, 1)
	if g.Tier() != TierCategory {
		t.Fatalf("release after full cool-down: %v", g.Tier())
	}

	// Full recovery is monotonic: the tier only ever steps down while
	// the score stays below the band.
	prev := g.Tier()
	for i := 0; i < 3*cooldownEvals; i++ {
		g.Evaluate(at(0.1))
		if cur := g.Tier(); cur > prev {
			t.Fatalf("tier rose from %v to %v during recovery", prev, cur)
		} else {
			prev = cur
		}
	}
	if g.Tier() != TierNone {
		t.Fatalf("did not fully disengage: %v", g.Tier())
	}
	s := g.Stats()
	if s.TierEngagements != 3 || s.TierReleases != 3 {
		t.Fatalf("engage/release totals: %+v", s)
	}
}

// TestAccountingIdentityUnderChurn: with every mechanism active and a
// pressure signal that wanders the whole range, the identity holds
// after every batch.
func TestAccountingIdentityUnderChurn(t *testing.T) {
	g := NewGate(Config{MinSampleRate: 0.2, RatePerSec: 2.5})
	rng := rand.New(rand.NewSource(42))
	var stamp uint64 = 1
	for round := 0; round < 200; round++ {
		g.Evaluate(at(rng.Float64()))
		n := 1 + rng.Intn(64)
		es := mkBatch(stamp, n, uint64(1+rng.Intn(50_000)), []uint8{1, 2, 3, 4}, rng.Intn(32))
		stamp += uint64(n)
		g.Filter(es)
		checkIdentity(t, g.Stats())
	}
	s := g.Stats()
	if s.SampledOut == 0 || s.ThrottledCategory == 0 || s.Seen == 0 {
		t.Fatalf("churn failed to exercise the mechanisms: %+v", s)
	}
}

// TestPressureScore: the scalar takes the worst store signal, latencies
// normalize against their budgets, and a failed write path is 1.
func TestPressureScore(t *testing.T) {
	cases := []struct {
		p    StorePressure
		want float64
	}{
		{StorePressure{}, 0},
		{StorePressure{FsyncNs: 10_000_000}, 0.5},
		{StorePressure{AppendNs: 200_000, FsyncNs: 14_000_000}, 0.7},
		{StorePressure{AppendNs: 500_000}, 0.5},
		{StorePressure{FsyncNs: 40_000_000}, 1},
		{StorePressure{Failed: true}, 1},
		{StorePressure{AppendNs: 3_000_000}, 1},
	}
	for i, c := range cases {
		if got := c.p.score(); got != c.want {
			t.Fatalf("case %d: score %v, want %v", i, got, c.want)
		}
	}
}
