package distributor

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/ring"
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

// ingestAll delivers every event of es to sh as one framed batch.
func ingestAll(sh Shard, es []tracer.Entry) error {
	var b store.Batch
	if err := b.Encode(es); err != nil {
		return err
	}
	return sh.Ingest(&b, nil)
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
	if err := ingestAll(sh, events(10, 1, 7)); err != nil {
		t.Fatal(err)
	}
	sh.Kill()
	if err := ingestAll(sh, events(10, 100, 7)); !errors.Is(err, ErrShardDown) {
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
			for _, owner := range ownersOf(d.ring, tid) {
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

// ownersOf names the shards r places thread tid on, first owner first.
func ownersOf(r *ring.Ring, tid uint32) []string {
	names := r.Shards()
	var out []string
	for _, si := range r.Owners(nil, uint64(tid), r.RF()) {
		out = append(out, names[si])
	}
	return out
}

// copiesOf counts the rows a shard's store holds per stamp, bypassing
// the health check a drained shard's Query applies.
func copiesOf(t *testing.T, sh *LocalShard) map[uint64]int {
	t.Helper()
	out := make(map[uint64]int)
	for _, e := range drainAll(t, sh.st.Query(store.Query{})) {
		out[e.Stamp]++
	}
	return out
}

// TestMoveCopiesExactlyWhatMoves holds a join and a drain to the move
// rule: each row reaches every owner its thread gains from the old ring
// to the new exactly once, and no other shard. A join's peer ships a
// thread only as its first old owner or as a holder outside its owners
// (a hedged copy); a drain ships everything the leaving shard holds.
func TestMoveCopiesExactlyWhatMoves(t *testing.T) {
	tids := make([]uint32, 40)
	for i := range tids {
		tids[i] = uint32(500 + i)
	}
	const seeded = 400
	// cluster is a seeded 3-shard RF=2 cluster and its shards' fault
	// seams, by name.
	cluster := func(t *testing.T) (*Distributor, map[string]*spyShard, map[string]*flakySink) {
		sinks := make([]*flakySink, 3)
		d, list := newSpyCluster(t, 3, Config{Replication: 2, Gate: gateOff()}, func(i int) func(Replica) Replica {
			return func(r Replica) Replica {
				sinks[i] = &flakySink{Replica: r}
				return sinks[i]
			}
		})
		if res := d.Ingest("", events(seeded, 1, tids...)); res.Acked != seeded {
			t.Fatalf("seed ingest: %+v", res)
		}
		spies, seams := make(map[string]*spyShard), make(map[string]*flakySink)
		for i, sp := range list {
			spies[sp.Name()], seams[sp.Name()] = sp, sinks[i]
		}
		return d, spies, seams
	}

	t.Run("join", func(t *testing.T) {
		d, spies, seams := cluster(t)
		from := d.ring
		to, err := from.Add("shard-99")
		if err != nil {
			t.Fatal(err)
		}
		// One more row, on a thread the newcomer gains, which its first
		// owner refuses: it sits on the second owner and on the hedge
		// candidate, a holder outside the thread's owners.
		var tid uint32
		for _, c := range tids {
			if slices.Contains(ownersOf(to, c), "shard-99") {
				tid = c
				break
			}
		}
		owners := ownersOf(from, tid)
		seams[owners[0]].failNext.Store(1)
		hedged := events(1, seeded+1, tid)
		if res := d.Ingest("", slices.Clone(hedged)); res.Acked != 1 {
			t.Fatalf("hedged ingest: %+v", res)
		}
		for name, sp := range spies {
			if held := copiesOf(t, sp.LocalShard)[seeded+1]; held != 1 && name != owners[0] || held != 0 && name == owners[0] {
				t.Fatalf("%s holds %d copies of the hedged row (first owner %s)", name, held, owners[0])
			}
		}

		extra := newTestShard(t, "shard-99")
		rep, err := d.AddShard(extra)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]int)
		for _, e := range append(events(seeded, 1, tids...), hedged...) {
			if slices.Contains(ownersOf(to, e.TID), "shard-99") {
				want[e.Stamp] = 1
			}
		}
		if got := copiesOf(t, extra); !maps.Equal(got, want) {
			t.Fatalf("newcomer holds %d stamps (%d rows), want each of the %d rows of its threads once", len(got), extra.Events(), len(want))
		}
		if rep.Moved != len(want) || rep.Failed != 0 || !slices.Equal(rep.Targets, []string{"shard-99"}) {
			t.Fatalf("join report %+v, want Moved %d to shard-99", rep, len(want))
		}
	})

	t.Run("drain", func(t *testing.T) {
		d, spies, _ := cluster(t)
		const victim = "shard-01"
		from := d.ring
		to, err := from.Remove(victim)
		if err != nil {
			t.Fatal(err)
		}
		before := make(map[string]map[uint64]int)
		for name, sp := range spies {
			before[name] = copiesOf(t, sp.LocalShard)
		}
		_, rep, err := d.DrainShard(victim)
		if err != nil {
			t.Fatal(err)
		}
		total, moved := 0, 0
		for name, sp := range spies {
			if name == victim {
				continue
			}
			want := make(map[uint64]int)
			for _, e := range events(seeded, 1, tids...) {
				was := ownersOf(from, e.TID)
				if slices.Contains(was, victim) && !slices.Contains(was, name) && slices.Contains(ownersOf(to, e.TID), name) {
					want[e.Stamp] = 1
				}
			}
			got := make(map[uint64]int)
			for stamp, n := range copiesOf(t, sp.LocalShard) {
				total += n
				if n -= before[name][stamp]; n != 0 {
					got[stamp] = n
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s gained %d new stamps, want each of the %d drained rows of its gained threads once", name, len(got), len(want))
			}
			moved += len(want)
		}
		if total != 2*seeded {
			t.Fatalf("survivors hold %d rows, want exactly %d (%d events × RF 2)", total, 2*seeded, seeded)
		}
		if rep.Moved != moved || rep.Failed != 0 || uint64(rep.Scanned) != uint64(len(before[victim])) {
			t.Fatalf("drain report %+v, want Moved %d of %d scanned", rep, moved, len(before[victim]))
		}
	})
}

// TestIngestRoutesByTheRingOfTheCall: placement follows the ring each
// Ingest saw, across every kind of ring change. After an ingest, a join,
// a drain and a crash removal, each followed by another ingest, every
// row of that ingest is on exactly the owners LookupN walks under the
// ring of the call — a walk that goes through no memo — and on no other
// shard. An owner memo that outlived its ring would route by the old
// topology.
func TestIngestRoutesByTheRingOfTheCall(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	held := make(map[string]*LocalShard)
	for _, sh := range locals {
		held[sh.Name()] = sh
	}
	tids := tidRange(1000, 64)
	next := uint64(1)
	ingest := func(step string) {
		t.Helper()
		es := events(256, next, tids...)
		next += uint64(len(es))
		if res := d.Ingest("", es); res.Acked != len(es) {
			t.Fatalf("%s: %+v, want all %d acked", step, res, len(es))
		}
		r := d.ring
		want := make(map[uint64]string) // stamp → its owners, by name
		for _, e := range es {
			owners := r.LookupN(fmt.Sprint(e.TID), r.RF())
			slices.Sort(owners)
			want[e.Stamp] = fmt.Sprint(owners)
		}
		got := make(map[uint64][]string)
		for _, name := range slices.Sorted(maps.Keys(held)) {
			if d.Shard(name) == nil {
				continue // drained or removed
			}
			for stamp, n := range copiesOf(t, held[name]) {
				if _, ok := want[stamp]; ok {
					for range n {
						got[stamp] = append(got[stamp], name)
					}
				}
			}
		}
		for stamp, owners := range want {
			if g := fmt.Sprint(got[stamp]); g != owners {
				t.Fatalf("%s: stamp %d is on %s, the ring of the call places it on %s", step, stamp, g, owners)
			}
		}
	}

	ingest("first ingest")
	joiner := newTestShard(t, "shard-04")
	held[joiner.Name()] = joiner
	if _, err := d.AddShard(joiner); err != nil {
		t.Fatal(err)
	}
	ingest("after the join")
	if _, _, err := d.DrainShard("shard-01"); err != nil {
		t.Fatal(err)
	}
	ingest("after the drain")
	if _, err := d.RemoveShard("shard-02"); err != nil {
		t.Fatal(err)
	}
	ingest("after the removal")
}

// TestSteadyBatchWalksNothing: a thread is walked once per ring, not
// once per batch. The first batch over 64 threads runs one ring walk per
// thread, the next batch over the same threads none (before the memo
// it ran 64 again), and a count() pushed down to the shards, whose
// ownership asks the same ring per row, none either.
func TestSteadyBatchWalksNothing(t *testing.T) {
	d, _ := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	tids := tidRange(1000, 64)
	r := d.ring
	for i, want := range []uint64{64, 0, 0} {
		before := r.Walks()
		if res := d.Ingest("", events(256, uint64(1+256*i), tids...)); res.Acked != 256 {
			t.Fatalf("batch %d: %+v", i, res)
		}
		if got := r.Walks() - before; got != want {
			t.Fatalf("batch %d over threads seen %d times ran %d ring walks, want %d", i, i, got, want)
		}
	}
	before := r.Walks()
	got, _, err := d.Aggregate(store.Query{}, []btql.AggSpec{{Kind: btql.AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Events != 3*256 || d.obs.aggPushdown.Load() != 1 {
		t.Fatalf("count %d, %d pushdowns: want 768 counted on the shards", got[0].Events, d.obs.aggPushdown.Load())
	}
	if w := r.Walks() - before; w != 0 {
		t.Fatalf("the pushed-down count ran %d ring walks, want 0", w)
	}
}

// tidRange returns the n thread ids from first on.
func tidRange(first uint32, n int) []uint32 {
	tids := make([]uint32, n)
	for i := range tids {
		tids[i] = first + uint32(i)
	}
	return tids
}
