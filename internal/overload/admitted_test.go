package overload

import (
	"testing"

	"btrace/internal/tracer"
)

// The post-gate fan-out hook: Admitted must see exactly the admitted
// slice (post-shedding, post-sampling), labeled with the resolved
// tenant, and must not fire for empty results.
func TestGateAdmittedHook(t *testing.T) {
	type call struct {
		tenant string
		stamps []uint64
	}
	var calls []call
	g := NewGate(Config{
		MinSampleRate: 1, // sampling off
		Admitted: func(tenant string, es []tracer.Entry) {
			c := call{tenant: tenant}
			for i := range es {
				c.stamps = append(c.stamps, es[i].Stamp)
			}
			calls = append(calls, c)
		},
	})

	es := []tracer.Entry{{Stamp: 1, TS: 10}, {Stamp: 2, TS: 20}}
	out := g.Filter(es)
	if len(out) != 2 {
		t.Fatalf("admitted %d, want 2", len(out))
	}
	if len(calls) != 1 || calls[0].tenant != DefaultTenant {
		t.Fatalf("hook calls = %+v, want one call for %q", calls, DefaultTenant)
	}
	if len(calls[0].stamps) != 2 || calls[0].stamps[0] != 1 || calls[0].stamps[1] != 2 {
		t.Fatalf("hook saw stamps %v", calls[0].stamps)
	}

	g.SetTenant("alpha")
	g.Filter([]tracer.Entry{{Stamp: 3, TS: 30}})
	if len(calls) != 2 || calls[1].tenant != "alpha" {
		t.Fatalf("tenant attribution: %+v", calls)
	}

	// Nothing admitted → no call. Drive the controller to the
	// full-drop tier so the whole batch is shed.
	g.SetTenant("")
	for i := 0; i < 100; i++ {
		g.Evaluate(at(1))
	}
	if g.Tier() != TierStream {
		t.Fatalf("tier %v, want TierStream", g.Tier())
	}
	before := len(calls)
	out = g.Filter([]tracer.Entry{{Stamp: 4, TS: 40}})
	if len(out) != 0 {
		t.Fatalf("full-drop tier admitted %d events", len(out))
	}
	if len(calls) != before {
		t.Fatalf("hook fired for an empty admitted batch: %+v", calls[before:])
	}
}
