package distributor

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// gateOff admits everything: sampling floor at 1 and no limits.
func gateOff() overload.Config { return overload.Config{MinSampleRate: 1} }

// newTestShard builds an object-backed LocalShard (no disk).
func newTestShard(t *testing.T, name string) *LocalShard {
	t.Helper()
	st, err := store.OpenBackend(backend.NewObject(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewLocalShard(LocalConfig{Name: name, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// newTestCluster builds n shards and a distributor over them; everything
// is closed on test cleanup.
func newTestCluster(t *testing.T, n int, cfg Config) (*Distributor, []*LocalShard) {
	t.Helper()
	locals := make([]*LocalShard, n)
	shards := make([]Shard, n)
	for i := range locals {
		locals[i] = newTestShard(t, fmt.Sprintf("shard-%02d", i))
		shards[i] = locals[i]
	}
	d, err := New(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, locals
}

// events builds well-formed entries with globally increasing stamps
// across the given TIDs.
func events(n int, startStamp uint64, tids ...uint32) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		stamp := startStamp + uint64(i)
		es[i] = tracer.Entry{
			Stamp:    stamp,
			TS:       stamp * 1000,
			TID:      tids[i%len(tids)],
			Category: uint8(stamp % 5),
			Level:    1,
			Payload:  []byte(fmt.Sprintf("e%d", stamp)),
		}
	}
	return es
}

func drainAll(t *testing.T, cur tracer.Cursor) []tracer.Entry {
	t.Helper()
	defer cur.Close()
	var out []tracer.Entry
	batch := make([]tracer.Entry, 256)
	for {
		n, _, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = tracer.CloneEntries(out, batch[:n])
	}
}

func TestDistributorReplicatesToQuorum(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	res := d.Ingest("acme", events(100, 1, 10, 11, 12, 13))
	if res.Acked != 100 || res.Refused != 0 || res.Throttled != 0 || res.GateDropped != 0 {
		t.Fatalf("result %+v, want 100 acked", res)
	}

	// RF=2: every event must be durably applied on exactly its two ring
	// owners, so total stored events == 2 × acked.
	var total uint64
	for _, sh := range locals {
		total += sh.Events()
	}
	if total != 200 {
		t.Fatalf("cluster stores %d events, want 200 (100 events × RF 2)", total)
	}

	// The merged query view deduplicates the replicas back to one copy
	// each, in stamp order, payloads intact.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, cur)
	if len(got) != 100 {
		t.Fatalf("merged query returned %d events, want 100", len(got))
	}
	for i, e := range got {
		want := uint64(i + 1)
		if e.Stamp != want {
			t.Fatalf("merged stream out of order at %d: stamp %d, want %d", i, e.Stamp, want)
		}
		if string(e.Payload) != fmt.Sprintf("e%d", want) {
			t.Fatalf("stamp %d payload %q corrupted in merge", want, e.Payload)
		}
	}
}

func TestDistributorHedgesAroundDeadReplica(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	locals[1].Kill()

	// Every batch must still ack: groups owned by the killed shard reach
	// quorum (2 of 2) by hedging to the next distinct shard on the ring
	// walk.
	res := d.Ingest("", events(200, 1, 20, 21, 22, 23, 24, 25, 26, 27))
	if res.Refused != 0 || res.Acked != 200 {
		t.Fatalf("with one dead shard: %+v, want all 200 acked", res)
	}
	// And the acked events must be fully readable without the dead
	// shard.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, cur); len(got) != 200 {
		t.Fatalf("query after kill returned %d events, want 200", len(got))
	}
	if st := d.Stats(); st.Hedges == 0 && st.ReplicaErrors == 0 {
		t.Fatalf("stats show no replica errors or hedges after a kill: %+v", st)
	}
}

func TestDistributorRefusesWithoutQuorum(t *testing.T) {
	// 2 shards, RF=2, quorum=2: killing one leaves no hedge candidates,
	// so ingest must refuse rather than under-replicate.
	d, locals := newTestCluster(t, 2, Config{Replication: 2, Gate: gateOff()})
	locals[0].Kill()
	res := d.Ingest("", events(10, 1, 5))
	if res.Acked != 0 || res.Refused != 10 {
		t.Fatalf("result %+v, want all 10 refused (no quorum possible)", res)
	}
	if reasons := d.NotReadyReasons(); len(reasons) == 0 {
		t.Fatal("NotReadyReasons empty with half the cluster dead")
	}
}

func TestDistributorTenantOverrides(t *testing.T) {
	overrides, err := ingest.ParseOverrides("limited=1:1")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newTestCluster(t, 3, Config{Replication: 2, Gate: gateOff(), Overrides: overrides})

	// All events share one virtual-time instant, so the 1-token burst
	// admits exactly one event for the limited tenant.
	es := make([]tracer.Entry, 8)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1000, TID: 3, Category: 1, Level: 1}
	}
	res := d.Ingest("limited", es)
	if res.Throttled != 7 || res.Acked != 1 {
		t.Fatalf("limited tenant: %+v, want 7 throttled 1 acked", res)
	}

	// An unlimited tenant is untouched by the override.
	res = d.Ingest("free", events(8, 100, 4))
	if res.Throttled != 0 || res.Acked != 8 {
		t.Fatalf("free tenant: %+v, want 0 throttled 8 acked", res)
	}

	// And the gate attributed both tenants.
	ts := d.TenantStats()
	if ts["limited"].Seen != 1 || ts["free"].Seen != 8 {
		t.Fatalf("tenant attribution %+v", ts)
	}
}

func TestDistributorResultIdentity(t *testing.T) {
	overrides, _ := ingest.ParseOverrides("q=10:10")
	d, _ := newTestCluster(t, 3, Config{Replication: 2, Gate: gateOff(), Overrides: overrides, RecordStamps: true})
	res := d.Ingest("q", events(64, 1, 1, 2, 3))
	if got := res.Throttled + res.GateDropped + res.Acked + res.Refused; got != res.Seen {
		t.Fatalf("accounting identity broken: %d+%d+%d+%d != %d",
			res.Throttled, res.GateDropped, res.Acked, res.Refused, res.Seen)
	}
	if len(res.AckedStamps) != res.Acked || len(res.RefusedStamps) != res.Refused {
		t.Fatalf("stamp records (%d acked, %d refused) disagree with counts (%d, %d)",
			len(res.AckedStamps), len(res.RefusedStamps), res.Acked, res.Refused)
	}
}

func TestDrainShardMovesOnlyMovedRanges(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	res := d.Ingest("", events(300, 1, 30, 31, 32, 33, 34, 35, 36, 37))
	if res.Acked != 300 {
		t.Fatalf("seed ingest: %+v", res)
	}
	victim := locals[2]
	preEvents := victim.Events()

	sh, rep, err := d.DrainShard(victim.Name())
	if err != nil {
		t.Fatal(err)
	}
	if sh != victim {
		t.Fatal("DrainShard returned a different shard")
	}
	if rep.Failed != 0 {
		t.Fatalf("drain failed to move %d events: %+v", rep.Failed, rep)
	}
	if uint64(rep.Scanned) != preEvents {
		t.Fatalf("drain scanned %d of the shard's %d events", rep.Scanned, preEvents)
	}
	// Each drained key keeps its surviving replica and gains exactly one
	// new owner, so moved == scanned is the ceiling; hedged extra copies
	// can only lower it.
	if rep.Moved > rep.Scanned {
		t.Fatalf("drain moved %d > scanned %d", rep.Moved, rep.Scanned)
	}
	victim.Close()

	// The full stream must remain readable from the survivors.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, cur)
	if len(got) != 300 {
		t.Fatalf("post-drain query returned %d events, want 300", len(got))
	}
	// And every key must now be fully replicated among the survivors:
	// RF=2 copies of every event across the remaining shards.
	var total uint64
	for _, l := range locals {
		if l == victim {
			continue
		}
		total += l.Events()
	}
	if total < 600 {
		t.Fatalf("survivors hold %d copies, want >= 600 (300 events × RF 2)", total)
	}
}

func TestAddShardRoutesNewWrites(t *testing.T) {
	d, _ := newTestCluster(t, 3, Config{Replication: 2, Gate: gateOff()})
	if res := d.Ingest("", events(100, 1, 40, 41, 42, 43)); res.Acked != 100 {
		t.Fatalf("seed ingest: %+v", res)
	}
	extra := newTestShard(t, "shard-99")
	rep, err := d.AddShard(extra)
	if err != nil {
		t.Fatal(err)
	}
	// The join rebalances: the newcomer's hash ranges arrive before
	// AddShard returns (40 TIDs on a 3→4 ring always move something).
	if rep.Moved == 0 || rep.Failed != 0 {
		t.Fatalf("join rebalance report %+v, want Moved > 0, Failed 0", rep)
	}
	if _, err := d.AddShard(extra); err == nil {
		t.Fatal("duplicate AddShard accepted")
	}
	if res := d.Ingest("", events(100, 1000, 40, 41, 42, 43)); res.Acked != 100 {
		t.Fatalf("post-add ingest: %+v", res)
	}
	// Old and new events both remain fully queryable across the ring.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, cur); len(got) != 200 {
		t.Fatalf("query after add returned %d events, want 200", len(got))
	}
	info := d.Info()
	if len(info.Shards) != 4 {
		t.Fatalf("Info lists %d shards, want 4", len(info.Shards))
	}
}

// TestAddDrainRemoveLosesNothing is the operator sequence that bit in
// practice: join a shard (ownership moves, data must follow), drain an
// original, then crash-remove another. If the join did not rebalance,
// keys whose placement moved to the newcomer would silently sit one
// replica short after the drain — drain trusts the ring when it skips
// owners that "already" hold a key — and the crash-removal would lose
// them. Every acked event must survive all three reshapes.
func TestAddDrainRemoveLosesNothing(t *testing.T) {
	d, _ := newTestCluster(t, 3, Config{Replication: 2, Gate: gateOff()})
	tids := make([]uint32, 32)
	for i := range tids {
		tids[i] = uint32(100 + i)
	}
	if res := d.Ingest("", events(400, 1, tids...)); res.Acked != 400 {
		t.Fatalf("seed ingest: %+v", res)
	}
	if _, err := d.AddShard(newTestShard(t, "shard-99")); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := d.DrainShard("shard-01"); err != nil {
		t.Fatal(err)
	} else if rep.Failed != 0 {
		t.Fatalf("drain report %+v, want Failed 0", rep)
	}
	if _, err := d.RemoveShard("shard-02"); err != nil {
		t.Fatal(err)
	}
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, cur)
	if len(got) != 400 {
		t.Fatalf("query after add+drain+remove returned %d events, want 400", len(got))
	}
	for i := range got {
		if got[i].Stamp != uint64(i+1) {
			t.Fatalf("stamp %d at position %d, want %d", got[i].Stamp, i, i+1)
		}
	}
}

func TestRemoveShardErrors(t *testing.T) {
	d, _ := newTestCluster(t, 2, Config{Replication: 2, Gate: gateOff()})
	if _, err := d.RemoveShard("nope"); err == nil {
		t.Fatal("removing unknown shard accepted")
	}
	if _, _, err := d.DrainShard("nope"); err == nil {
		t.Fatal("draining unknown shard accepted")
	}
}

func TestKilledShardRefuses(t *testing.T) {
	st, err := store.OpenBackend(backend.NewObject(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewLocalShard(LocalConfig{Name: "s", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.Ingest(events(10, 1, 7)); err != nil {
		t.Fatal(err)
	}
	sh.Kill()
	if err := sh.Ingest(events(10, 100, 7)); !errors.Is(err, ErrShardDown) {
		t.Fatalf("ingest after kill: %v, want ErrShardDown", err)
	}
	if _, err := sh.Query(store.Query{}, 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query after kill: %v, want ErrShardDown", err)
	}
	if sh.Healthy() {
		t.Fatal("killed shard reports healthy")
	}
}

// TestRebalanceUnderWritesKeepsEveryOwnerWhole joins one shard and
// drains another while writers are being acked, then holds the cluster
// to the topology invariant the rebalancing scans exist for: every owner
// the final ring names for a key holds every acked event of that key.
// An Ingest routed by the old ring that lands on a shard after the scan
// has read it would leave its event one replica short.
func TestRebalanceUnderWritesKeepsEveryOwnerWhole(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff(), RecordStamps: true})
	tids := make([]uint32, 32)
	for i := range tids {
		tids[i] = uint32(200 + i)
	}
	const writers, perBatch = 3, 16
	var (
		next  atomic.Uint64
		stop  atomic.Bool
		wg    sync.WaitGroup
		acked [writers]map[uint64]uint32 // stamp → TID
	)
	for w := range acked {
		acked[w] = make(map[uint64]uint32)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				es := events(perBatch, next.Add(perBatch)-perBatch+1, tids...)
				tidOf := make(map[uint64]uint32, perBatch)
				for i := range es {
					tidOf[es[i].Stamp] = es[i].TID
				}
				for _, s := range d.Ingest("", es).AckedStamps {
					acked[w][s] = tidOf[s]
				}
			}
		}()
	}
	waitFor := func(stamps uint64) {
		for next.Load() < stamps {
			runtime.Gosched()
		}
	}

	waitFor(2000)
	extra := newTestShard(t, "shard-99")
	if rep, err := d.AddShard(extra); err != nil || rep.Failed != 0 {
		t.Fatalf("AddShard under writes: %+v, %v", rep, err)
	}
	waitFor(next.Load() + 2000)
	victim, rep, err := d.DrainShard("shard-01")
	if err != nil || rep.Failed != 0 {
		t.Fatalf("DrainShard under writes: %+v, %v", rep, err)
	}
	waitFor(next.Load() + 500)
	stop.Store(true)
	wg.Wait()
	victim.Close()

	held := make(map[string]map[uint64]bool)
	for _, sh := range append(locals, extra) {
		if sh == victim {
			continue
		}
		held[sh.Name()] = make(map[uint64]bool)
		for _, e := range drainAll(t, sh.st.Query(store.Query{})) {
			held[sh.Name()][e.Stamp] = true
		}
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
		for stamp, tid := range acked[w] {
			for _, owner := range d.ring.Lookup(streamKey(tid)) {
				if !held[owner][stamp] {
					t.Fatalf("acked stamp %d (tid %d) is missing on its owner %s", stamp, tid, owner)
				}
			}
		}
	}
	if total < 4500 {
		t.Fatalf("writers got %d events acked, want the rebalances to have run under load", total)
	}
}
