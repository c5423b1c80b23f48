package faults_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/distributor"
	"btrace/internal/faults"
	"btrace/internal/live"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
	"btrace/internal/vulture"
)

// TestChaosVultureContinuous is the in-process version of the CI soak
// gate: concurrent writers push contiguous stamp ranges through a
// replicated cluster with flaky stores while a live-tail subscriber
// follows along, a shard is drained mid-storm, and afterwards every
// fully-acked range is demanded back from both cluster read surfaces.
// Asserted, per internal/live's and internal/vulture's package docs:
//
//   - zero acked-stamp loss, duplication or mis-ordering on the merged
//     query surface, stamp for stamp in agreement with the shards' own
//     one-worker reads, with a shard drained mid-run;
//   - the live tail's conservation law: every admitted event is either
//     delivered to the subscriber or counted missed — nothing vanishes
//     silently — and per-stream stamps only ever rise;
//   - the chaos was real: the drain moved data and the storm kept
//     acking through it.
func TestChaosVultureContinuous(t *testing.T) {
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
			WrapStore: func(ds distributor.Replica) distributor.Replica {
				f := in.FlakyStore(ds, 0.01)
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
	hub := live.NewHub(live.Config{})
	d, err := distributor.New(shards, distributor.Config{
		Replication:  2,
		HedgeLimit:   2,
		Gate:         overload.Config{MinSampleRate: 1},
		Publish:      hub.Publish,
		RecordStamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rep := vulture.NewReport()

	// The live subscriber races the writers, like a real /live client.
	sub, err := hub.Subscribe(live.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	tailStop := make(chan struct{})
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		last := make(map[uint32]*uint64)
		batch := make([]tracer.Entry, 256)
		drainOnce := func() bool {
			for {
				n, missed, err := sub.Next(batch)
				rep.Add(&rep.LiveMissed, missed)
				for i := 0; i < n; i++ {
					e := &batch[i]
					l := last[e.TID]
					if l == nil {
						l = new(uint64)
						last[e.TID] = l
					}
					rep.ObserveLive(l, e.Stamp)
				}
				if err != nil {
					return false
				}
				if n == 0 && missed == 0 {
					return true
				}
			}
		}
		for {
			if !drainOnce() {
				return
			}
			select {
			case <-tailStop:
				drainOnce() // final exhaustive sweep after the last publish
				return
			case <-sub.Notify():
			}
		}
	}()

	const (
		nWriters = 3
		perBatch = 64
	)
	batchesPer := scale(60, 20)
	var (
		nextStamp atomic.Uint64
		acked     atomic.Uint64
		refused   atomic.Uint64
		mu        sync.Mutex
		fullAcked [][2]uint64 // fully-acked contiguous ranges
		ackedAll  = make(map[uint64]bool)
	)
	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(tid uint32) {
			defer writers.Done()
			for b := 0; b < batchesPer; b++ {
				hi := nextStamp.Add(perBatch)
				lo := hi - perBatch + 1
				es := make([]tracer.Entry, perBatch)
				for i := range es {
					s := lo + uint64(i)
					es[i] = tracer.Entry{
						Stamp: s, TS: s * 1000, TID: tid,
						Category: 1, Level: 1,
						Payload: []byte(fmt.Sprintf("v%d", s)),
					}
				}
				res := d.Ingest("vulture", es)
				acked.Add(uint64(res.Acked))
				refused.Add(uint64(res.Refused))
				mu.Lock()
				for _, s := range res.AckedStamps {
					ackedAll[s] = true
				}
				if res.Acked == perBatch {
					fullAcked = append(fullAcked, [2]uint64{lo, hi})
				}
				mu.Unlock()
			}
		}(uint32(700 + w))
	}

	// Chaos alongside the storm: a store wedges and heals, and a shard is
	// drained out of the ring while writes are in flight.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		flaky[3].Wedge()
		flaky[3].Heal()
		if _, _, err := d.DrainShard("shard-01"); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	writers.Wait()
	<-chaosDone
	locals[1].Close()
	close(tailStop)
	<-tailDone
	sub.Close()

	if acked.Load() == 0 || len(fullAcked) == 0 {
		t.Fatal("storm acked nothing; scenario degenerate")
	}

	// The merged cluster read, held to the ack contract via the same
	// report type the CI soak binary uses. workers=0 and workers=4 run the
	// same snapshot scan and merge, so what they are checked against is
	// the reference without the merge: every surviving shard's own
	// one-worker read, deduplicated and sorted here.
	drain := func(cur tracer.Cursor, err error) []uint64 {
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var stamps []uint64
		batch := make([]tracer.Entry, 512)
		for {
			n, _, err := cur.Next(batch)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return stamps
			}
			for _, e := range batch[:n] {
				stamps = append(stamps, e.Stamp)
			}
		}
	}
	var reference []uint64
	for _, sh := range d.Shards() {
		reference = append(reference, drain(sh.Query(store.Query{}, 1))...)
	}
	slices.Sort(reference)
	reference = slices.Compact(reference)
	surfaces := []struct {
		name   string
		stamps []uint64
	}{
		{"one-worker reference", reference},
		{"workers=0", drain(d.Query(store.Query{}, 0))},
		{"workers=4", drain(d.Query(store.Query{}, 4))},
	}
	for _, sf := range surfaces {
		stamps := sf.stamps
		for _, r := range fullAcked {
			lo, hi := r[0], r[1]
			i := sort.Search(len(stamps), func(k int) bool { return stamps[k] >= lo })
			j := sort.Search(len(stamps), func(k int) bool { return stamps[k] > hi })
			rep.VerifyRange(sf.name, lo, hi, stamps[i:j])
		}
		// Partially-acked batches too: each individually acked stamp must
		// be present.
		present := make(map[uint64]bool, len(stamps))
		for _, s := range stamps {
			present[s] = true
		}
		for s := range ackedAll {
			if !present[s] {
				t.Errorf("%s: acked stamp %d unreadable after drain", sf.name, s)
			}
		}
		if !slices.Equal(stamps, reference) {
			t.Fatalf("%s diverges from the shards' one-worker reads: %d stamps vs %d", sf.name, len(stamps), len(reference))
		}
	}

	// Live conservation: admitted = acked + refused (the gate admits
	// before replication decides), and each admitted event was delivered
	// or counted missed.
	admitted := acked.Load() + refused.Load()
	st := sub.Stats()
	if st.Matched != admitted {
		t.Fatalf("hub matched %d events, want admitted %d", st.Matched, admitted)
	}
	if rep.LiveDelivered+rep.LiveMissed != admitted {
		t.Fatalf("live conservation broken: delivered %d + missed %d != admitted %d",
			rep.LiveDelivered, rep.LiveMissed, admitted)
	}
	if rep.Failed() {
		t.Fatalf("ack contract broken under chaos: %v", rep.Violations())
	}
	t.Logf("vulture chaos: %d acked, %d refused, %d full ranges verified on 3 surfaces; live %d delivered + %d missed",
		acked.Load(), refused.Load(), len(fullAcked), rep.LiveDelivered, rep.LiveMissed)
}
