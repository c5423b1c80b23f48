package faults_test

import (
	"testing"

	"btrace/internal/collect"
	"btrace/internal/faults"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// fireNonEmpty fires a dump for every non-empty admitted batch, so each
// event the gate admits is immediately on the delivery path — what makes
// the end-to-end accounting identity checkable with no events stranded
// in the rolling window.
type fireNonEmpty struct{}

func (fireNonEmpty) Observe(es []tracer.Entry) string {
	if len(es) > 0 {
		return "batch"
	}
	return ""
}
func (fireNonEmpty) Name() string { return "burst" }

// TestChaosOverloadStorm drives the full adaptive-overload loop through
// two engage→degrade→recover cycles: an oversubscribed producer floods
// the collector while the durable store's write path is wedged, then
// both heal. Asserted, per DESIGN.md "Overload control":
//
//   - the tier machine escalates to the full-drop tier under each storm,
//     steps back monotonically during each calm (no flapping), and ends
//     fully disengaged;
//   - the event-exact accounting identity holds: every event the source
//     produced is either durably stored or attributed to exactly one
//     overload/spill counter — nothing is silently lost;
//   - the work a step does stays bounded under storm, in step counts
//     (the wall-clock form of the bound — storm within 2× of baseline —
//     is BenchmarkRecordUnderOverload's, gated by benchdiff): a wedged
//     store is attempted at most once per step, and once the full-drop
//     tier has engaged a storm step hands on no more events than a calm
//     one.
func TestChaosOverloadStorm(t *testing.T) {
	in := faults.New(chaosSeed)
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fst := in.FlakyStore(st, 0) // failures are wedge-driven, not random
	src := in.BurstSource(faults.BurstConfig{
		CalmPerPoll:  4,
		StormPerPoll: 32,
		CalmPolls:    scale(40, 20),
		StormPolls:   scale(30, 15),
		Cycles:       2,
		StormMissed:  96, // storm loss rate 96/(96+32) = 0.75
		Categories:   []uint8{1, 2, 3},
		PayloadBytes: 32,
	})
	gate := overload.NewGate(overload.Config{
		MinSampleRate:     0.25,
		EngagePressure:    0.6,
		DisengagePressure: 0.3,
		EngageAfter:       2,
		CooldownEvals:     4,
	})
	sup, err := collect.NewSupervisor(collect.SupervisorConfig{
		Source:          src,
		Triggers:        []collect.Trigger{fireNonEmpty{}},
		Store:           fst,
		StoreSink:       true,
		Overload:        gate,
		SinkRetryBudget: 1,
		BackoffMax:      1,
		// The ring must absorb every storm dump without evicting: any
		// SpillDropped here would be the pipeline losing data it had
		// already accepted.
		SpillCapacity: 256,
		Seed:          chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}

	type sample struct {
		storm bool
		tier  overload.Tier
	}
	var (
		trajectory        []sample
		reachedFull       int
		quietSteps, steps int
		// Per-step work, in counts: events admitted past the gate and
		// store append attempts.
		calmAdmitted, shedAdmitted, stormAppends uint64
	)
	for quietSteps < 30 {
		storming := src.Storming()
		if src.Quiet() {
			quietSteps++
		}
		// The store's write path fails exactly while the producer storms.
		if storming {
			fst.Wedge()
		} else {
			fst.Heal()
		}
		admitted0 := gate.Stats().Admitted
		appends0, _, _ := fst.Stats()
		sup.Step()
		admitted := gate.Stats().Admitted - admitted0
		appends, _, _ := fst.Stats()
		switch {
		case !storming:
			calmAdmitted = max(calmAdmitted, admitted)
		case gate.Tier() == overload.TierStream:
			shedAdmitted = max(shedAdmitted, admitted)
		}
		if storming {
			stormAppends = max(stormAppends, appends-appends0)
		}
		trajectory = append(trajectory, sample{storm: storming, tier: gate.Tier()})
		if storming && gate.Tier() == overload.TierStream {
			reachedFull++
		}
		steps++
		if steps > 10_000 {
			t.Fatal("scenario failed to quiesce")
		}
	}
	if err := sup.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Tier trajectory: full drop reached under storm, fully released at
	// the end, and within every phase the tier moves one way only — storms
	// never step down, calms never step up (the hysteresis no-flap
	// property, observed end to end rather than on the unit controller).
	if reachedFull == 0 {
		t.Error("storm never drove the gate to the full-drop tier")
	}
	if gate.Tier() != overload.TierNone {
		t.Errorf("tier after recovery: %v, want none", gate.Tier())
	}
	for i := 1; i < len(trajectory); i++ {
		prev, cur := trajectory[i-1], trajectory[i]
		if prev.storm != cur.storm {
			continue // phase boundary
		}
		if cur.storm && cur.tier < prev.tier {
			t.Fatalf("step %d: tier released mid-storm (%v -> %v)", i, prev.tier, cur.tier)
		}
		if !cur.storm && cur.tier > prev.tier {
			t.Fatalf("step %d: tier engaged mid-calm (%v -> %v)", i, prev.tier, cur.tier)
		}
	}
	gs := gate.Stats()
	if gs.TierEngagements != gs.TierReleases {
		t.Errorf("engagements %d != releases %d after full recovery", gs.TierEngagements, gs.TierReleases)
	}

	// Event-exact accounting identity. Everything the source produced was
	// seen by the gate (the verifier quarantines nothing from a
	// well-formed source), and every seen event is durably stored or
	// attributed to exactly one drop counter.
	ss := sup.Stats()
	if ss.Quarantined != 0 {
		t.Fatalf("verifier quarantined %d well-formed events", ss.Quarantined)
	}
	produced := src.Produced()
	if gs.Seen != produced {
		t.Fatalf("gate saw %d of %d produced events", gs.Seen, produced)
	}
	_, stored, _ := fst.Stats()
	accounted := stored + gs.SampledOut + gs.ThrottledCategory + gs.ThrottledStream +
		gs.ShedCategory + gs.ShedStream + ss.SpillDroppedEvents
	if accounted != produced {
		t.Fatalf("accounting identity broken: produced %d, accounted %d (stored %d, gate %+v, supervisor %+v)",
			produced, accounted, stored, gs, ss)
	}
	if ss.SpillDropped != 0 || ss.SpillDroppedEvents != 0 {
		t.Errorf("pipeline dropped accepted data: %+v", ss)
	}
	h := sup.Health()
	if h.PendingDumps != 0 || h.SpilledDumps != 0 {
		t.Errorf("undelivered dumps after flush: %+v", h)
	}
	if gs.PayloadShedEvents == 0 {
		t.Error("payload tier never engaged its shedding")
	}

	// Bounded work per step: the pipeline never spins on the wedged
	// store (SinkRetryBudget 1: one attempt, then spill), and at the
	// full-drop tier an 8× oversubscribed step hands on no more than a
	// calm step does.
	if stormAppends > 1 {
		t.Errorf("a storm step attempted the wedged store %d times, want at most 1", stormAppends)
	}
	if shedAdmitted > calmAdmitted {
		t.Errorf("a full-drop storm step admitted %d events, a calm step at most %d", shedAdmitted, calmAdmitted)
	}

	// The injected schedule is part of the scenario's reproducible plan.
	if got := in.Schedule("store"); len(got) != 4 ||
		got[0] != "wedge" || got[1] != "heal" || got[2] != "wedge" || got[3] != "heal" {
		t.Errorf("store fault schedule: %v", got)
	}
	if got := in.Schedule("burst"); len(got) == 0 {
		t.Error("burst phase transitions not recorded")
	}
}
