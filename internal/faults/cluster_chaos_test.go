package faults_test

import (
	"fmt"
	"testing"

	"btrace/internal/distributor"
	"btrace/internal/faults"
	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// TestChaosClusterShardKill drives a replicated ingest storm through the
// distributor while one shard is killed outright and another shard's
// store goes flaky and intermittently wedges. Asserted, per
// internal/distributor's package doc:
//
//   - zero acked-event loss: with RF=2 and quorum acks, every stamp the
//     distributor acked is readable from the surviving shards after the
//     kill — durability is quorum-backed, not best-effort;
//   - the event-exact accounting identity holds end to end: every event
//     produced is attributed to exactly one of acked, refused, tenant
//     throttled, or gate dropped;
//   - the merged query stream is strictly increasing by stamp (replica
//     duplicates collapse to one copy each);
//   - the failure path was actually exercised: the kill shows up as
//     replica errors and/or hedged deliveries.
func TestChaosClusterShardKill(t *testing.T) {
	in := faults.New(chaosSeed)
	const nShards = 4
	locals := make([]*distributor.LocalShard, nShards)
	shards := make([]distributor.Shard, nShards)
	flaky := make([]*faults.FlakyStore, nShards)
	for i := range locals {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		sh, err := distributor.NewLocalShard(distributor.LocalConfig{
			Name:  fmt.Sprintf("shard-%02d", i),
			Store: st,
			// Every shard's sink rolls the same injected dice: a cluster
			// of flaky disks, not one bad apple.
			WrapStore: func(ds distributor.Replica) distributor.Replica {
				f := in.FlakyStore(ds, 0.02)
				flaky[idx] = f
				return f
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		locals[i] = sh
		shards[i] = sh
	}
	overrides, err := ingest.ParseOverrides("noisy=100:10")
	if err != nil {
		t.Fatal(err)
	}
	d, err := distributor.New(shards, distributor.Config{
		Replication: 2,
		// Walk the whole ring when owners fail: with one shard dead and
		// another wedged the remaining two must still form a quorum.
		HedgeLimit:   2,
		Gate:         overload.Config{MinSampleRate: 1},
		Overrides:    overrides,
		RecordStamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const perBatch = 64
	batches := scale(120, 40)
	killAt := batches / 3
	var produced, acked, refused, throttled, gateDropped int
	ackedStamps := make(map[uint64]bool)
	stamp := uint64(0)
	for b := 0; b < batches; b++ {
		if b == killAt {
			locals[1].Kill()
		}
		// A survivor's store wedges and heals in waves through the storm.
		switch b % 20 {
		case 10:
			flaky[3].Wedge()
		case 15:
			flaky[3].Heal()
		}
		tenant := "acme"
		if b%4 == 3 {
			tenant = "noisy"
		}
		es := make([]tracer.Entry, perBatch)
		for i := range es {
			stamp++
			es[i] = tracer.Entry{
				Stamp:    stamp,
				TS:       stamp * 1000,
				TID:      uint32(100 + (int(stamp) % 16)),
				Category: uint8(stamp % 5),
				Level:    1,
				Payload:  []byte(fmt.Sprintf("c%d", stamp)),
			}
		}
		res := d.Ingest(tenant, es)
		produced += len(es)
		acked += res.Acked
		refused += res.Refused
		throttled += res.Throttled
		gateDropped += res.GateDropped
		if len(res.AckedStamps) != res.Acked {
			t.Fatalf("batch %d: %d acked stamps for %d acked events", b, len(res.AckedStamps), res.Acked)
		}
		for _, s := range res.AckedStamps {
			ackedStamps[s] = true
		}
	}
	flaky[3].Heal()

	// Accounting identity: every produced event lands in exactly one
	// bucket.
	if got := acked + refused + throttled + gateDropped; got != produced {
		t.Fatalf("accounting identity broken: %d acked + %d refused + %d throttled + %d gate != %d produced",
			acked, refused, throttled, gateDropped, produced)
	}
	if acked == 0 {
		t.Fatal("storm acked nothing; scenario degenerate")
	}
	if throttled == 0 {
		t.Fatal("noisy tenant was never throttled; override inert")
	}
	st := d.Stats()
	if st.ReplicaErrors == 0 && st.Hedges == 0 {
		t.Fatalf("kill and wedges left no trace in stats: %+v", st)
	}

	// Zero acked-event loss: the merged view over the survivors must
	// contain every quorum-acked stamp, strictly increasing.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	readable := make(map[uint64]bool, len(ackedStamps))
	batch := make([]tracer.Entry, 512)
	last := uint64(0)
	for {
		n, _, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, e := range batch[:n] {
			if e.Stamp <= last {
				t.Fatalf("merged stream not strictly increasing: %d after %d", e.Stamp, last)
			}
			last = e.Stamp
			readable[e.Stamp] = true
		}
	}
	lost := 0
	for s := range ackedStamps {
		if !readable[s] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked events unreadable after shard kill (zero-loss violated)", lost, len(ackedStamps))
	}
	t.Logf("storm: %d produced, %d acked, %d refused, %d throttled; %d readable; stats %+v",
		produced, acked, refused, throttled, len(readable), st)
}
