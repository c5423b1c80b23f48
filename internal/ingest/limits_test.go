package ingest

import (
	"testing"

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
	for _, bad := range []string{"=5", "a=", "a=0", "a=-1", "a=1:0", "a=x", "a=1:1,a=2:2", "a"} {
		if _, err := ParseOverrides(bad); err == nil {
			t.Fatalf("ParseOverrides(%q) accepted", bad)
		}
	}
}

func TestTenantLimiterThrottles(t *testing.T) {
	limits, err := ParseOverrides("q=2:2")
	if err != nil {
		t.Fatal(err)
	}
	l := newTenantLimiter(limits)

	// Burst of 2 at one instant: 2 admitted, 3 throttled.
	es := make([]tracer.Entry, 5)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1_000_000_000}
	}
	kept, dropped := l.filter("q", es)
	if len(kept) != 2 || dropped != 3 {
		t.Fatalf("kept %d dropped %d, want 2 and 3", len(kept), dropped)
	}

	// A second later the bucket refilled 2 tokens.
	es2 := []tracer.Entry{
		{Stamp: 10, TS: 2_000_000_000},
		{Stamp: 11, TS: 2_000_000_000},
		{Stamp: 12, TS: 2_000_000_000},
	}
	kept, dropped = l.filter("q", es2)
	if len(kept) != 2 || dropped != 1 {
		t.Fatalf("after refill: kept %d dropped %d, want 2 and 1", len(kept), dropped)
	}

	// Tenants without an override pass untouched.
	es3 := make([]tracer.Entry, 64)
	kept, dropped = l.filter("other", es3)
	if len(kept) != 64 || dropped != 0 {
		t.Fatalf("unlimited tenant: kept %d dropped %d", len(kept), dropped)
	}
}

func TestTenantLimiterIsolatesTenants(t *testing.T) {
	limits, _ := ParseOverrides("a=1:1,b=1:1")
	l := newTenantLimiter(limits)
	ea := []tracer.Entry{{Stamp: 1, TS: 1000}, {Stamp: 2, TS: 1000}}
	eb := []tracer.Entry{{Stamp: 3, TS: 1000}, {Stamp: 4, TS: 1000}}
	if kept, _ := l.filter("a", ea); len(kept) != 1 {
		t.Fatalf("tenant a kept %d, want 1", len(kept))
	}
	// Tenant a exhausting its bucket must not charge tenant b.
	if kept, _ := l.filter("b", eb); len(kept) != 1 {
		t.Fatalf("tenant b kept %d, want 1", len(kept))
	}
}
