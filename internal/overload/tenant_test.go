package overload

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"btrace/internal/obs"
	"btrace/internal/tracer"
)

func tenantBatch(n int, startStamp uint64) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		es[i] = tracer.Entry{Stamp: startStamp + uint64(i), TS: (startStamp + uint64(i)) * 1000,
			TID: 7, Category: 3, Level: 1}
	}
	return es
}

func TestTenantAttributionExact(t *testing.T) {
	g := NewGate(Config{MinSampleRate: 1})
	g.SetTenant("alpha")
	g.Filter(tenantBatch(10, 1))
	g.SetTenant("beta")
	g.Filter(tenantBatch(4, 100))
	g.SetTenant("") // empty falls back to the default tenant
	g.Filter(tenantBatch(3, 200))

	ts := g.TenantStats()
	if got := ts["alpha"]; got.Seen != 10 || got.Admitted != 10 || got.Dropped != 0 {
		t.Fatalf("alpha stats %+v", got)
	}
	if got := ts["beta"]; got.Seen != 4 || got.Admitted != 4 {
		t.Fatalf("beta stats %+v", got)
	}
	if got := ts[DefaultTenant]; got.Seen != 3 {
		t.Fatalf("default-tenant stats %+v", got)
	}

	// Per-tenant accounting must tile the global accounting exactly.
	var seen, admitted, dropped uint64
	for _, s := range ts {
		seen += s.Seen
		admitted += s.Admitted
		dropped += s.Dropped
	}
	gs := g.Stats()
	if seen != gs.Seen || admitted != gs.Admitted || dropped != gs.dropped() {
		t.Fatalf("tenant totals (%d/%d/%d) != gate totals (%d/%d/%d)",
			seen, admitted, dropped, gs.Seen, gs.Admitted, gs.dropped())
	}
}

func TestTenantAttributionCountsDrops(t *testing.T) {
	// One token per virtual second with burst 1: a same-timestamp burst
	// admits one event and throttles the rest, all booked to the tenant.
	g := NewGate(Config{MinSampleRate: 1, RatePerSec: 1, Burst: 1})
	es := make([]tracer.Entry, 8)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1000, TID: 9, Category: 5, Level: 1}
	}
	g.SetTenant("noisy")
	g.Filter(es)
	got := g.TenantStats()["noisy"]
	if got.Seen != 8 || got.Admitted != 1 || got.Dropped != 7 {
		t.Fatalf("noisy stats %+v, want Seen 8 Admitted 1 Dropped 7", got)
	}
}

func TestTenantTableBounded(t *testing.T) {
	g := NewGate(Config{MinSampleRate: 1})
	for i := 0; i < MaxTenants+16; i++ {
		g.SetTenant(fmt.Sprintf("tenant-%03d", i))
		g.Filter(tenantBatch(1, uint64(i*10+1)))
	}
	ts := g.TenantStats()
	if len(ts) > MaxTenants+1 {
		t.Fatalf("tenant table grew to %d entries, bound is %d + overflow", len(ts), MaxTenants)
	}
	if got := ts[TenantOverflow]; got.Seen != 16 {
		t.Fatalf("overflow bucket saw %d events, want 16", got.Seen)
	}
}

// tenantObsRuns names each TestTenantObsSeries run's tenant: a series
// outlives its gate (the registry folds it into the process totals), so
// under -count a reused name would read its predecessors' events too.
var tenantObsRuns atomic.Int32

func TestTenantObsSeries(t *testing.T) {
	tenant := fmt.Sprintf("acme-%d", tenantObsRuns.Add(1))
	g := NewGate(Config{MinSampleRate: 1})
	g.SetTenant(tenant)
	g.Filter(tenantBatch(5, 1))

	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`btrace_overload_tenant_seen_total{tenant=%q} 5`, tenant)
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("metrics output missing %q", want)
	}
}
