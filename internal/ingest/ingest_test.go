package ingest

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

// batch builds n well-formed entries for one thread, stamps from first.
func batch(tid uint32, first uint64, n int) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		stamp := first + uint64(i)
		es[i] = tracer.Entry{Stamp: stamp, TS: stamp * 1000, TID: tid, Category: 1, Level: 1}
	}
	return es
}

// TestAdmitQuarantineBypassesQuotaAndGate: a quarantined entry is
// evidence — whatever the quota and the gate do to the rest of the
// batch, it comes back (last), and neither the gate's counters nor the
// live tail ever see it.
func TestAdmitQuarantineBypassesQuotaAndGate(t *testing.T) {
	const bad = 9 // category of the entries the verifier must quarantine
	fullDrop := overload.Config{MinSampleRate: 1, EngagePressure: 0.5, EngageAfter: 1}
	for _, tc := range []struct {
		name      string
		gate      overload.Config
		overrides string
		hot       int // full-pressure evaluations before the batch
		want      Counts
		wantOut   int
	}{
		{name: "open gate", gate: overload.Config{MinSampleRate: 1},
			want: Counts{Seen: 6, Quarantined: 2}, wantOut: 6},
		{name: "tenant quota", gate: overload.Config{MinSampleRate: 1}, overrides: "acme=1:1",
			want: Counts{Seen: 6, Quarantined: 2, Throttled: 3}, wantOut: 3},
		{name: "full-drop tier", gate: fullDrop, hot: 3,
			want: Counts{Seen: 6, Quarantined: 2, GateDropped: 4}, wantOut: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var published []uint8
			overrides, err := ParseOverrides(tc.overrides)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAdmission(tc.gate, overrides, func(_ string, es []tracer.Entry) {
				for i := range es {
					published = append(published, es[i].Category)
				}
			})
			for i := 0; i < tc.hot; i++ {
				a.Evaluate(overload.Pressure{Store: overload.StorePressure{Failed: true}})
			}
			// Four clean entries at one instant (the quota's burst decides
			// among them), then a zero stamp and a per-thread regression,
			// marked by their category.
			es := batch(7, 1, 4)
			for i := range es {
				es[i].TS = 1000
			}
			es = append(es, tracer.Entry{TID: 7, Category: bad}, tracer.Entry{Stamp: 2, TID: 7, Category: bad})
			out, c := a.Admit("acme", es)
			if tc.want.Tenant = "acme"; c != tc.want || len(out) != tc.wantOut {
				t.Fatalf("counts %+v with %d entries out, want %+v with %d", c, len(out), tc.want, tc.wantOut)
			}
			if c.Seen != c.Throttled+c.GateDropped+len(out) {
				t.Fatalf("identity broken: %+v, %d out", c, len(out))
			}
			admitted, tail := out[:len(out)-2], out[len(out)-2:]
			if tail[0].Category != bad || tail[1].Category != bad {
				t.Fatalf("quarantined entries not re-appended last: %+v", out)
			}
			if want := uint64(c.Seen - c.Quarantined - c.Throttled); a.GateStats().Seen != want {
				t.Fatalf("gate saw %d entries, want %d: a quarantined or throttled one reached it", a.GateStats().Seen, want)
			}
			if len(published) != len(admitted) || slices.Contains(published, bad) {
				t.Fatalf("live tail got categories %v for %d admitted: a quarantined entry reached it", published, len(admitted))
			}
		})
	}
}

// TestAdmitDefaultTenant: a batch without a tenant is the default
// tenant's, for the quota as for the attribution.
func TestAdmitDefaultTenant(t *testing.T) {
	overrides, err := ParseOverrides(DefaultTenant + "=1:2")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission(overload.Config{MinSampleRate: 1}, overrides, nil)
	es := batch(1, 1, 5)
	for i := range es {
		es[i].TS = 1000
	}
	out, c := a.Admit("", es)
	if len(out) != 2 || c.Throttled != 3 || c.Tenant != DefaultTenant {
		t.Fatalf("%d admitted, counts %+v, want the burst of 2 and 3 throttled", len(out), c)
	}
	if ts := a.TenantStats()[DefaultTenant]; ts.Seen != 2 || ts.Admitted != 2 {
		t.Fatalf("default tenant attribution %+v", ts)
	}
}

// TestAdmitConcurrentTenants: N goroutines admit under N tenants at
// once while /metrics and the tenant table are read (run under -race);
// every batch's counts are exact, each tenant is attributed its own
// events and nobody else's, and the live publish saw every admitted one.
func TestAdmitConcurrentTenants(t *testing.T) {
	const tenants, batches, per = 8, 50, 16
	overrides, err := ParseOverrides("t0=1:1") // one tenant throttled, seven not
	if err != nil {
		t.Fatal(err)
	}
	published := 0 // written under the Admission's lock
	a := NewAdmission(overload.Config{MinSampleRate: 1}, overrides, func(_ string, es []tracer.Entry) {
		published += len(es)
	})
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				obs.Default().Snapshot()
				a.TenantStats()
			}
		}
	}()
	var wg sync.WaitGroup
	throttled := make([]int, tenants)
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g)
			for k := 0; k < batches; k++ {
				// One thread per tenant, stamps disjoint across tenants.
				es := batch(uint32(g), uint64(g*1_000_000+k*per+1), per)
				out, c := a.Admit(tenant, es)
				if c.Seen != per || c.Quarantined != 0 || c.GateDropped != 0 || len(out) != per-c.Throttled {
					t.Errorf("%s batch %d: counts %+v, %d out", tenant, k, c, len(out))
					return
				}
				throttled[g] += c.Throttled
				a.Evaluate(overload.Pressure{})
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scraped
	if throttled[0] == 0 {
		t.Error("t0's quota never throttled")
	}
	stats := a.TenantStats()
	var seen uint64
	for g := 0; g < tenants; g++ {
		if g > 0 && throttled[g] != 0 {
			t.Errorf("t%d throttled %d events without a quota", g, throttled[g])
		}
		ts := stats[fmt.Sprintf("t%d", g)]
		if want := uint64(batches*per - throttled[g]); ts.Seen != want || ts.Admitted != want || ts.Dropped != 0 {
			t.Errorf("t%d attribution %+v, want %d seen and admitted", g, ts, want)
		}
		seen += ts.Seen
	}
	if gs := a.GateStats(); gs.Seen != seen || gs.Admitted != seen || uint64(published) != seen {
		t.Errorf("gate stats %+v, %d published, tenants sum to %d", gs, published, seen)
	}
}
