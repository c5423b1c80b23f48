package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

// gateSeries is each btrace_overload_* counter and the Stats field it
// reads.
var gateSeries = map[string]func(overload.Stats) uint64{
	"btrace_overload_seen_total":                func(s overload.Stats) uint64 { return s.Seen },
	"btrace_overload_admitted_total":            func(s overload.Stats) uint64 { return s.Admitted },
	"btrace_overload_sampled_out_total":         func(s overload.Stats) uint64 { return s.SampledOut },
	"btrace_overload_throttled_category_total":  func(s overload.Stats) uint64 { return s.ThrottledCategory },
	"btrace_overload_shed_category_total":       func(s overload.Stats) uint64 { return s.ShedCategory },
	"btrace_overload_shed_stream_total":         func(s overload.Stats) uint64 { return s.ShedStream },
	"btrace_overload_payload_shed_events_total": func(s overload.Stats) uint64 { return s.PayloadShedEvents },
	"btrace_overload_payload_shed_bytes_total":  func(s overload.Stats) uint64 { return s.PayloadShedBytes },
	"btrace_overload_evaluations_total":         func(s overload.Stats) uint64 { return s.Evaluations },
	"btrace_overload_tier_engagements_total":    func(s overload.Stats) uint64 { return s.TierEngagements },
	"btrace_overload_tier_releases_total":       func(s overload.Stats) uint64 { return s.TierReleases },
}

// TestOverloadSeriesReadGateStats: every count the gate and the tenant
// rows keep lives once, in their Stats, and /metrics reads it there. One
// Admission is driven through quarantine, a tenant quota, head sampling,
// a category token bucket, each shed tier and an engage/release cycle;
// each btrace_overload_* counter moves by exactly its GateStats field
// (every field nonzero), the tenant series by TenantStats and the
// quarantine series by Quarantined. Once the Admission is dropped and
// its series folded, the registry's retired totals still hold it all.
func TestOverloadSeriesReadGateStats(t *testing.T) {
	overrides, err := ParseOverrides("slow=1000:4")
	if err != nil {
		t.Fatal(err)
	}
	// The gauges sum over live gates: let the other tests' Admissions go.
	before := foldedGates(t)
	a := NewAdmission(overload.Config{MinSampleRate: 0.2, RatePerSec: 1000}, overrides, nil)

	var stamp uint64
	// feed admits n entries of thread 1 as tenant, one virtual
	// millisecond apart (one category token each) unless burst, then at
	// one instant; every third is level 3 (shed at the category tier).
	feed := func(tenant string, n int, burst bool) Counts {
		t.Helper()
		es := make([]tracer.Entry, n)
		for i := range es {
			stamp++
			ts := stamp * 1_000_000
			if burst {
				ts = (stamp - uint64(i)) * 1_000_000
			}
			es[i] = tracer.Entry{Stamp: stamp, TS: ts, TID: 1, Category: 4, Level: uint8(1 + 2*(i%3/2)), Payload: []byte("payload")}
		}
		_, c := a.Admit(tenant, es)
		return c
	}
	// evaluate feeds n evaluations at one pressure: a tier engages after
	// three hot ones and releases after eight cool ones.
	evaluate := func(fill float64, n int, want overload.Tier) {
		t.Helper()
		for range n {
			// 1 ms per event is the gate's whole append budget: pressure 1.
			a.Evaluate(overload.StorePressure{AppendNs: uint64(fill * 1_000_000)})
		}
		if got := a.Tier(); got != want {
			t.Fatalf("after %d evaluations at pressure %v: tier %v, want %v", n, fill, got, want)
		}
	}

	evaluate(0, 1, overload.TierNone)
	feed("a", 50, false)
	if _, c := a.Admit("a", []tracer.Entry{{TID: 2}}); c.Quarantined != 1 {
		t.Fatalf("a zero stamp was not quarantined: %+v", c)
	}
	if c := feed("slow", 10, true); c.Throttled != 6 {
		t.Fatalf("tenant quota: %+v, want 6 of 10 throttled", c)
	}
	feed("a", 2100, true)               // the category bucket's burst is 2×1000
	evaluate(0.6, 1, overload.TierNone) // in the band: the tier holds
	feed("a", 50, false)
	evaluate(1, 3, overload.TierPayload) // smoothed pressure past 0.5: sampling
	feed("a", 50, false)
	evaluate(1, 3, overload.TierCategory)
	feed("b", 50, false)
	evaluate(1, 3, overload.TierStream)
	feed("b", 50, false)
	for _, tier := range []overload.Tier{overload.TierCategory, overload.TierPayload, overload.TierNone} {
		evaluate(0, 8, tier)
	}

	gs, tenants, quarantined := a.GateStats(), a.TenantStats(), a.Quarantined()
	check := func(when string, snap obs.Snapshot) {
		t.Helper()
		delta := func(name string) uint64 { return uint64(snap.Value(name) - before.Value(name)) }
		for name, field := range gateSeries {
			if want := field(gs); want == 0 || delta(name) != want {
				t.Errorf("%s: %s moved by %d, GateStats says %d (the drive must make it nonzero)", when, name, delta(name), want)
			}
		}
		for name, s := range tenants {
			label := fmt.Sprintf("{tenant=%q}", name)
			for series, want := range map[string]uint64{"seen": s.Seen, "admitted": s.Admitted, "dropped": s.Dropped} {
				if got := delta("btrace_overload_tenant_" + series + "_total" + label); got != want {
					t.Errorf("%s: tenant %s %s moved by %d, TenantStats says %d", when, name, series, got, want)
				}
			}
		}
		if got := delta("btrace_collect_quarantined_total"); got != quarantined || quarantined != 1 {
			t.Errorf("%s: quarantined moved by %d, Quarantined says %d", when, got, quarantined)
		}
	}
	live := obs.Default().Snapshot()
	check("live", live)
	// Every counter the gate emits has a row in the table above.
	for _, s := range live.Samples {
		if s.Kind == obs.KindCounter && strings.HasPrefix(s.Name, "btrace_overload_") &&
			!strings.HasPrefix(s.Name, "btrace_overload_tenant_") && gateSeries[s.Name] == nil {
			t.Errorf("%s is not checked against GateStats", s.Name)
		}
	}
	if g, tier := live.Value("btrace_overload_gates"), live.Value("btrace_overload_shed_tier"); g != 1 || tier != 0 {
		t.Errorf("%v live gates, shed tier %v after the releases; want 1, 0", g, tier)
	}

	// Drop the Admission; its finalizer folds its series.
	a = nil
	check("folded", foldedGates(t))
}

// foldedGates collects garbage until no Admission of this test binary
// is live, every gate's series folded, and returns that snapshot.
func foldedGates(t *testing.T) obs.Snapshot {
	t.Helper()
	snap := obs.Default().Snapshot()
	for i := 0; i < 500 && snap.Value("btrace_overload_gates") != 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		snap = obs.Default().Snapshot()
	}
	if v := snap.Value("btrace_overload_gates"); v != 0 {
		t.Fatalf("%v gates still live after their Admissions were dropped", v)
	}
	return snap
}
