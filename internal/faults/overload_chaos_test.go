package faults_test

import (
	"testing"

	"btrace/internal/faults"
	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/store"
)

// TestChaosOverloadStorm drives the admission policy (internal/ingest)
// through two engage→degrade→recover cycles: an oversubscribed producer
// floods it while the durable store's write path is wedged, then both
// heal. Each batch goes BurstSource → Admit → one append, as on a server,
// with the gate's pressure fed from the source's loss rate — no clock
// anywhere. Asserted, per internal/overload's package doc:
//
//   - the tier machine escalates to the full-drop tier under each storm,
//     steps back monotonically during each calm (no flapping), and ends
//     fully disengaged;
//   - the event-exact accounting identity holds: every event the source
//     produced is durably stored, or attributed to exactly one quota,
//     gate or refused-append counter — nothing is silently lost;
//   - the work a batch costs stays bounded under storm, in counts (the
//     wall-clock form of the bound — storm within 2× of baseline — is
//     BenchmarkRecordUnderOverload's, gated by benchdiff): a wedged
//     store is attempted exactly once per storm batch that admitted
//     anything, and once the full-drop tier has engaged a storm batch
//     admits no more events than a calm one.
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
	adm := ingest.NewAdmission(overload.Config{
		MinSampleRate:     0.25,
		EngagePressure:    0.6,
		DisengagePressure: 0.3,
		EngageAfter:       2,
		CooldownEvals:     4,
	}, nil, nil)

	type sample struct {
		storm bool
		tier  overload.Tier
	}
	var (
		trajectory            []sample
		reachedFull           int
		quietBatches, batches int
		// Event-exact outcomes the gate does not count itself.
		quarantined, throttled, refused uint64
		// Per-batch work, in counts: events admitted, and the store
		// append attempts of the storm batches that admitted anything.
		calmAdmitted, shedAdmitted   uint64
		stormAppends, stormAppenders uint64
		// The append's one encoding, as store.AppendEntries makes it.
		batch store.Batch
	)
	for quietBatches < 30 {
		storming := src.Storming()
		if src.Quiet() {
			quietBatches++
		}
		// The store's write path fails exactly while the producer storms.
		if storming {
			fst.Wedge()
		} else {
			fst.Heal()
		}
		es, missed := src.Batch()
		// The gate reads the store's signals only. The source's loss rate
		// stands in for the append latency a wedged store backs up into
		// (1 ms per event, the gate's whole append budget, is pressure 1):
		// the same storm shape, with no clock in it.
		var p overload.StorePressure
		if total := missed + uint64(len(es)); total > 0 {
			p.AppendNs = missed * 1_000_000 / total
		}
		adm.Evaluate(p)
		appends0, _, _ := fst.Stats()
		admitted, c := adm.Admit("", es)
		quarantined += uint64(c.Quarantined)
		throttled += uint64(c.Throttled)
		if len(admitted) > 0 {
			batch.Encode(admitted)
			if fst.AppendBatch(&batch, nil) != nil {
				refused += uint64(len(admitted))
			}
		}
		appends, _, _ := fst.Stats()
		tier := adm.Tier()
		switch {
		case !storming:
			calmAdmitted = max(calmAdmitted, uint64(len(admitted)))
		case tier == overload.TierStream:
			shedAdmitted = max(shedAdmitted, uint64(len(admitted)))
		}
		if storming && len(admitted) > 0 {
			stormAppends += appends - appends0
			stormAppenders++
		}
		trajectory = append(trajectory, sample{storm: storming, tier: tier})
		if storming && tier == overload.TierStream {
			reachedFull++
		}
		batches++
		if batches > 10_000 {
			t.Fatal("scenario failed to quiesce")
		}
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
	if tier := adm.Tier(); tier != overload.TierNone {
		t.Errorf("tier after recovery: %v, want none", tier)
	}
	for i := 1; i < len(trajectory); i++ {
		prev, cur := trajectory[i-1], trajectory[i]
		if prev.storm != cur.storm {
			continue // phase boundary
		}
		if cur.storm && cur.tier < prev.tier {
			t.Fatalf("batch %d: tier released mid-storm (%v -> %v)", i, prev.tier, cur.tier)
		}
		if !cur.storm && cur.tier > prev.tier {
			t.Fatalf("batch %d: tier engaged mid-calm (%v -> %v)", i, prev.tier, cur.tier)
		}
	}
	gs := adm.GateStats()
	if gs.TierEngagements != gs.TierReleases {
		t.Errorf("engagements %d != releases %d after full recovery", gs.TierEngagements, gs.TierReleases)
	}

	// Event-exact accounting identity. Everything the source produced was
	// seen by the gate (the verifier quarantines nothing from a
	// well-formed source, and no tenant has a quota here), and every seen
	// event is durably stored or attributed to exactly one counter.
	if quarantined != 0 {
		t.Fatalf("verifier quarantined %d well-formed events", quarantined)
	}
	produced := src.Produced()
	if gs.Seen != produced {
		t.Fatalf("gate saw %d of %d produced events", gs.Seen, produced)
	}
	_, stored, _ := fst.Stats()
	if got := st.Events(); got != stored {
		t.Fatalf("store holds %d events, the sink applied %d", got, stored)
	}
	if gs.Seen != gs.Admitted+gs.SampledOut+gs.ThrottledCategory+gs.ShedCategory+gs.ShedStream {
		t.Fatalf("gate identity broken: %+v", gs)
	}
	accounted := stored + throttled + gs.SampledOut + gs.ThrottledCategory +
		gs.ShedCategory + gs.ShedStream + refused
	if accounted != produced {
		t.Fatalf("accounting identity broken: produced %d, accounted %d (stored %d, throttled %d, refused %d, gate %+v)",
			produced, accounted, stored, throttled, refused, gs)
	}
	if refused == 0 {
		t.Error("the wedged store never refused a batch: the failure path went unexercised")
	}
	if gs.PayloadShedEvents == 0 {
		t.Error("payload tier never engaged its shedding")
	}

	// Bounded work per batch: a wedged store costs one append attempt —
	// every storm batch that admitted anything makes at least one, so
	// equal totals mean exactly one each — and at the full-drop tier an
	// 8× oversubscribed batch hands on no more than a calm one does.
	if stormAppenders == 0 || stormAppends != stormAppenders {
		t.Errorf("%d storm batches attempted the wedged store %d times, want once each", stormAppenders, stormAppends)
	}
	if shedAdmitted > calmAdmitted {
		t.Errorf("a full-drop storm batch admitted %d events, a calm batch at most %d", shedAdmitted, calmAdmitted)
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
