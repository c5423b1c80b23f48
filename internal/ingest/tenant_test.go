package ingest

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

func TestParseOverrides(t *testing.T) {
	got, err := ParseOverrides("acme=100:200,free=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d overrides, want 2", len(got))
	}
	if l := got["acme"]; l.RatePerSec != 100 || l.Burst != 200 {
		t.Fatalf("acme = %+v", l)
	}
	if l := got["free"]; l.RatePerSec != 5 || l.Burst != 10 {
		t.Fatalf("free = %+v (burst should default to 2x rate)", l)
	}

	if m, err := ParseOverrides(""); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{
		"=5", "a=", "a=0", "a=-1", "a=1:0", "a=x", "a=1:1,a=2:2", "a",
		// NaN fails no <= test: it parsed, and throttled every event.
		"a=NaN", "a=1:NaN",
		// An infinite rate or burst parsed as no quota at all.
		"a=+Inf", "a=Inf", "a=1:Inf", "a=1:+Inf",
		// A bucket that never holds a whole token throttles to zero.
		"a=100:0.5",
		// A finite rate whose default burst, twice it, overflows.
		"a=1e308",
	} {
		if _, err := ParseOverrides(bad); err == nil {
			t.Errorf("ParseOverrides(%q) accepted", bad)
		}
	}
}

// openAdmission is an Admission whose gate passes everything, under the
// given -tenant-overrides spec.
func openAdmission(t *testing.T, overrides string) *Admission {
	t.Helper()
	ov, err := ParseOverrides(overrides)
	if err != nil {
		t.Fatal(err)
	}
	return NewAdmission(overload.Config{MinSampleRate: 1}, ov, nil)
}

// at builds n entries of thread tid, stamps from first, all at virtual
// time ts.
func at(tid uint32, first uint64, n int, ts uint64) []tracer.Entry {
	es := batch(tid, first, n)
	for i := range es {
		es[i].TS = ts
	}
	return es
}

func TestTenantLimiterThrottles(t *testing.T) {
	a := openAdmission(t, "q=2:2")

	// Burst of 2 at one instant: 2 admitted, 3 throttled.
	if out, c := a.Admit("q", at(1, 1, 5, 1_000_000_000)); len(out) != 2 || c.Throttled != 3 {
		t.Fatalf("kept %d throttled %d, want 2 and 3", len(out), c.Throttled)
	}
	// A second later the bucket refilled 2 tokens.
	if out, c := a.Admit("q", at(1, 10, 3, 2_000_000_000)); len(out) != 2 || c.Throttled != 1 {
		t.Fatalf("after refill: kept %d throttled %d, want 2 and 1", len(out), c.Throttled)
	}
	// Tenants without an override pass untouched.
	if out, c := a.Admit("other", at(2, 1, 64, 1000)); len(out) != 64 || c.Throttled != 0 {
		t.Fatalf("unlimited tenant: kept %d throttled %d", len(out), c.Throttled)
	}
}

func TestTenantLimiterIsolatesTenants(t *testing.T) {
	a := openAdmission(t, "a=1:1,b=1:1")
	if out, _ := a.Admit("a", at(1, 1, 2, 1000)); len(out) != 1 {
		t.Fatalf("tenant a kept %d, want 1", len(out))
	}
	// Tenant a exhausting its bucket must not charge tenant b.
	if out, _ := a.Admit("b", at(1, 3, 2, 1000)); len(out) != 1 {
		t.Fatalf("tenant b kept %d, want 1", len(out))
	}
}

// TestTenantsReuseThreadIDs: each tenant's row has its own verifier, so
// two tenants whose clients both use thread 7, with stamp ranges that
// interleave across their batches, regress nothing: every event is
// admitted and nothing is quarantined.
func TestTenantsReuseThreadIDs(t *testing.T) {
	a := openAdmission(t, "")
	for _, step := range []struct {
		tenant string
		first  uint64
	}{{"alpha", 101}, {"beta", 1}, {"alpha", 111}, {"beta", 11}} {
		out, c := a.Admit(step.tenant, batch(7, step.first, 10))
		if len(out) != 10 || c.Quarantined != 0 {
			t.Fatalf("%s stamps %d..: %d of 10 out, counts %+v", step.tenant, step.first, len(out), c)
		}
	}
	if q := a.Quarantined(); q != 0 {
		t.Fatalf("%d entries quarantined, want 0", q)
	}
}

func TestTenantAttributionExact(t *testing.T) {
	a := openAdmission(t, "")
	a.Admit("alpha", batch(1, 1, 10))
	a.Admit("beta", batch(1, 100, 4))
	a.Admit("", batch(1, 200, 3)) // empty is the default tenant

	ts := a.TenantStats()
	if got := ts["alpha"]; got.Seen != 10 || got.Admitted != 10 || got.Dropped != 0 {
		t.Fatalf("alpha stats %+v", got)
	}
	if got := ts["beta"]; got.Seen != 4 || got.Admitted != 4 {
		t.Fatalf("beta stats %+v", got)
	}
	if got := ts[DefaultTenant]; got.Seen != 3 {
		t.Fatalf("default-tenant stats %+v", got)
	}

	// The tenant rows must tile the gate's accounting exactly.
	var seen, admitted, dropped uint64
	for _, s := range ts {
		seen += s.Seen
		admitted += s.Admitted
		dropped += s.Dropped
	}
	if gs := a.GateStats(); seen != gs.Seen || admitted != gs.Admitted || dropped != gs.Seen-gs.Admitted {
		t.Fatalf("tenant totals (%d/%d/%d) != gate totals (%d/%d/%d)",
			seen, admitted, dropped, gs.Seen, gs.Admitted, gs.Seen-gs.Admitted)
	}
}

func TestTenantAttributionCountsDrops(t *testing.T) {
	// Half a token per virtual second, so the burst is 1: a
	// same-timestamp burst admits one event and throttles the rest, all
	// booked to the tenant.
	a := NewAdmission(overload.Config{MinSampleRate: 1, RatePerSec: 0.5}, nil, nil)
	a.Admit("noisy", at(9, 1, 8, 1000))
	if got := a.TenantStats()["noisy"]; got.Seen != 8 || got.Admitted != 1 || got.Dropped != 7 {
		t.Fatalf("noisy stats %+v, want Seen 8 Admitted 1 Dropped 7", got)
	}
}

func TestTenantTableBounded(t *testing.T) {
	a := openAdmission(t, "")
	// Distinct stamps: the overflow row's tenants share one verifier.
	for i := 0; i < MaxTenants+16; i++ {
		a.Admit(fmt.Sprintf("tenant-%03d", i), batch(1, uint64(i+1), 1))
	}
	ts := a.TenantStats()
	if len(ts) > MaxTenants+1 {
		t.Fatalf("tenant table grew to %d entries, bound is %d + overflow", len(ts), MaxTenants)
	}
	if got := ts[TenantOverflow]; got.Seen != 16 {
		t.Fatalf("overflow bucket saw %d events, want 16", got.Seen)
	}

	// An override tenant's row exists from construction: arriving after
	// the table filled up, it keeps its own quota and its own row, and
	// inventing more names grows nothing.
	b := openAdmission(t, "vip=1:1,quiet=5")
	for i := 0; i < 3*MaxTenants; i++ {
		b.Admit(fmt.Sprintf("tenant-%03d", i), batch(1, uint64(i+1), 1))
	}
	if rows, bound := len(b.rows), 2+MaxTenants+1; rows > bound {
		t.Fatalf("tenant table holds %d rows, bound is %d", rows, bound)
	}
	if _, c := b.Admit("vip", at(1, 1, 3, 1000)); c.Throttled != 2 {
		t.Fatalf("late override tenant: counts %+v, want its quota to throttle 2", c)
	}
	ts = b.TenantStats()
	if got := ts["vip"]; got.Seen != 1 || got.Admitted != 1 {
		t.Fatalf("late override tenant attributed %+v, want its own row with 1 seen", got)
	}
	if got := ts[TenantOverflow]; got.Seen != 2*MaxTenants {
		t.Fatalf("overflow saw %d events, want the %d invented tenants' only", got.Seen, 2*MaxTenants)
	}
}

// tenantObsRuns names each TestTenantObsSeries run's tenants: a series
// outlives its Admission (the registry folds it into the process
// totals), so under -count a reused name would read its predecessors'
// events too.
var tenantObsRuns atomic.Int32

func TestTenantObsSeries(t *testing.T) {
	run := tenantObsRuns.Add(1)
	tenant, idle := fmt.Sprintf("acme-%d", run), fmt.Sprintf("idle-%d", run)
	a := openAdmission(t, idle+"=5")
	a.Admit(tenant, batch(1, 1, 5))

	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`btrace_overload_tenant_seen_total{tenant=%q} 5`, tenant),
		fmt.Sprintf(`btrace_overload_tenant_admitted_total{tenant=%q} 5`, tenant),
		fmt.Sprintf(`btrace_overload_tenant_dropped_total{tenant=%q} 0`, tenant),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// A row that has sent nothing — an override's, from construction —
	// has no series.
	if label := fmt.Sprintf(`{tenant=%q}`, idle); strings.Contains(sb.String(), label) {
		t.Errorf("metrics output has series for %s, which sent nothing", label)
	}
}

// The live publish: it sees exactly the admitted slice (post-shedding,
// post-sampling) under the request's tenant — the resolved default for
// none, and its own name for a tenant booked to the overflow row — and
// is not called for an empty result.
func TestGateAdmittedHook(t *testing.T) {
	type call struct {
		tenant string
		stamps []uint64
	}
	var calls []call
	a := NewAdmission(overload.Config{MinSampleRate: 1}, nil, func(tenant string, es []tracer.Entry) {
		c := call{tenant: tenant}
		for i := range es {
			c.stamps = append(c.stamps, es[i].Stamp)
		}
		calls = append(calls, c)
	})

	if out, _ := a.Admit("", batch(1, 1, 2)); len(out) != 2 {
		t.Fatalf("admitted %d, want 2", len(out))
	}
	if len(calls) != 1 || calls[0].tenant != DefaultTenant || !slices.Equal(calls[0].stamps, []uint64{1, 2}) {
		t.Fatalf("hook calls = %+v, want stamps 1 and 2 for %q", calls, DefaultTenant)
	}
	a.Admit("alpha", batch(1, 3, 1))
	if len(calls) != 2 || calls[1].tenant != "alpha" {
		t.Fatalf("tenant attribution: %+v", calls)
	}

	// Fill the table; a tenant booked to the overflow row is still
	// published under its own name.
	for i := 0; i < MaxTenants; i++ {
		a.Admit(fmt.Sprintf("filler-%02d", i), batch(1, uint64(10+i), 1))
	}
	a.Admit("late", batch(1, 10+MaxTenants, 1))
	if last := calls[len(calls)-1]; last.tenant != "late" {
		t.Fatalf("overflow tenant published as %q, want %q", last.tenant, "late")
	}
	if a.TenantStats()[TenantOverflow].Seen == 0 {
		t.Fatal("the late tenant was not booked to the overflow row")
	}

	// Nothing admitted → no call. Drive the controller to the full-drop
	// tier so the whole batch is shed.
	for i := 0; i < 100; i++ {
		a.Evaluate(overload.StorePressure{Failed: true})
	}
	if a.Tier() != overload.TierStream {
		t.Fatalf("tier %v, want TierStream", a.Tier())
	}
	before := len(calls)
	if out, _ := a.Admit("", batch(1, 3, 1)); len(out) != 0 {
		t.Fatalf("full-drop tier admitted %d events", len(out))
	}
	if len(calls) != before {
		t.Fatalf("hook fired for an empty admitted batch: %+v", calls[before:])
	}
}
