package distributor

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/ring"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

var errInjected = errors.New("injected shard failure")

// delivery is one Shard.Ingest call as a spyShard saw it.
type delivery struct {
	stamps []uint64
	err    error
}

// spyShard wraps a LocalShard, recording every delivery and its outcome
// and failing deliveries on demand.
type spyShard struct {
	*LocalShard
	fail atomic.Bool

	mu  sync.Mutex
	log []delivery
}

func (s *spyShard) Ingest(b *store.Batch, rows []int32) error {
	d := delivery{stamps: make([]uint64, len(rows))}
	for k, i := range rows {
		d.stamps[k] = b.Stamp(int(i))
	}
	if s.fail.Load() {
		d.err = errInjected
	} else {
		d.err = s.LocalShard.Ingest(b, rows)
	}
	s.mu.Lock()
	s.log = append(s.log, d)
	s.mu.Unlock()
	return d.err
}

func (s *spyShard) deliveries() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.log)
}

// newSpyCluster builds n spied shards (shard-00…) and a distributor
// over them; wrap, when set, is shard i's fault-injection seam.
func newSpyCluster(t *testing.T, n int, cfg Config, wrap func(i int) func(Replica) Replica) (*Distributor, []*spyShard) {
	t.Helper()
	spies := make([]*spyShard, n)
	shards := make([]Shard, n)
	for i := range spies {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		lc := LocalConfig{Name: fmt.Sprintf("shard-%02d", i), Store: st}
		if wrap != nil {
			lc.WrapStore = wrap(i)
		}
		sh, err := NewLocalShard(lc)
		if err != nil {
			t.Fatal(err)
		}
		spies[i] = &spyShard{LocalShard: sh}
		shards[i] = spies[i]
	}
	d, err := New(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, spies
}

// shardStamps reads every stamp a shard's store holds, bypassing the
// health check a killed shard's Query applies.
func shardStamps(t *testing.T, sh *LocalShard) map[uint64]bool {
	t.Helper()
	out := make(map[uint64]bool)
	for _, e := range drainAll(t, sh.st.Query(store.Query{})) {
		out[e.Stamp] = true
	}
	return out
}

// TestFanoutPerShardUnderFaults pins the write path's shape against a
// per-event reference model: one delivery per destination shard per
// round — a failing replica included, which is tried once — quorum
// decided per event, hedges only for the events that need them, and
// exact refusal when the hedge candidate is down too.
func TestFanoutPerShardUnderFaults(t *testing.T) {
	const (
		nShards = 4
		rf      = 2
		width   = rf + 1 // HedgeLimit 1
	)
	names := make([]string, nShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%02d", i)
	}
	ref, err := ring.New(names, ring.Config{Replicas: rf})
	if err != nil {
		t.Fatal(err)
	}
	// One TID per distinct (owner, owner, hedge) walk: 4·3·2 of them, so
	// the batch spans every owner pair with every hedge candidate.
	var tids []uint32
	walkOf := make(map[uint32][]string)
	seen := make(map[string]bool)
	for tid := uint32(1); len(seen) < 24 && tid < 1<<16; tid++ {
		w := ref.LookupN(strconv.FormatUint(uint64(tid), 10), width)
		if key := strings.Join(w, ">"); !seen[key] {
			seen[key] = true
			tids = append(tids, tid)
			walkOf[tid] = w
		}
	}
	if len(seen) != 24 {
		t.Fatalf("found %d of 24 ring walks", len(seen))
	}

	cases := []struct {
		name string
		down []string
	}{
		{"healthy", nil},
		{"one shard down", []string{"shard-01"}},
		{"owner and its hedge down", []string{"shard-01", "shard-02"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, spies := newSpyCluster(t, nShards, Config{
				Replication: rf, HedgeLimit: 1, Gate: gateOff(), RecordStamps: true,
			}, nil)
			down := make(map[string]bool)
			for _, sp := range spies {
				if slices.Contains(tc.down, sp.Name()) {
					sp.fail.Store(true)
					down[sp.Name()] = true
				}
			}
			es := events(4*len(tids), 1, tids...)

			// Reference model: play the rounds per event. route names the
			// shards event i goes to in a round.
			acks := make([]int, len(es))
			wantCalls := make(map[string]int)
			wantHedges, wantErrors := 0, 0
			play := func(hedge bool, route func(i int) []string) {
				hit := make(map[string][]int)
				for i := range es {
					for _, name := range route(i) {
						hit[name] = append(hit[name], i)
					}
				}
				for name, idx := range hit {
					wantCalls[name]++
					if down[name] {
						wantErrors++
						continue
					}
					if hedge {
						wantHedges++
					}
					for _, i := range idx {
						acks[i]++
					}
				}
			}
			play(false, func(i int) []string { return walkOf[es[i].TID][:rf] })
			for h := rf; h < width; h++ {
				play(true, func(i int) []string {
					if acks[i] >= quorum(rf) {
						return nil
					}
					return walkOf[es[i].TID][h : h+1]
				})
			}
			var wantAcked, wantRefused []uint64
			for i := range es {
				if acks[i] >= quorum(rf) {
					wantAcked = append(wantAcked, es[i].Stamp)
				} else {
					wantRefused = append(wantRefused, es[i].Stamp)
				}
			}

			res := d.Ingest("", es)
			if got := res.Throttled + res.GateDropped + res.Acked + res.Refused; got != res.Seen {
				t.Fatalf("accounting identity broken: %+v", res)
			}
			if !slices.Equal(res.AckedStamps, wantAcked) {
				t.Errorf("acked stamps %v, model says %v", res.AckedStamps, wantAcked)
			}
			if !slices.Equal(res.RefusedStamps, wantRefused) {
				t.Errorf("refused stamps %v, model says %v", res.RefusedStamps, wantRefused)
			}
			if res.Acked != len(wantAcked) || res.Refused != len(wantRefused) {
				t.Errorf("acked %d refused %d, model says %d and %d", res.Acked, res.Refused, len(wantAcked), len(wantRefused))
			}
			st := d.Stats()
			if int(st.Hedges) != wantHedges || int(st.ReplicaErrors) != wantErrors {
				t.Errorf("hedges %d replica errors %d, model says %d and %d", st.Hedges, st.ReplicaErrors, wantHedges, wantErrors)
			}
			total := 0
			for _, sp := range spies {
				calls := len(sp.deliveries())
				total += calls
				if calls != wantCalls[sp.Name()] {
					t.Errorf("%s took %d deliveries, model says %d", sp.Name(), calls, wantCalls[sp.Name()])
				}
			}
			switch len(tc.down) {
			case 0:
				if total > nShards || len(wantRefused) != 0 {
					t.Errorf("healthy path: %d deliveries for %d shards, %d refused", total, nShards, len(wantRefused))
				}
			case 1:
				if len(wantRefused) != 0 || wantHedges == 0 {
					t.Errorf("one shard down: model refuses %d, hedges %d; want 0 and > 0", len(wantRefused), wantHedges)
				}
			case 2:
				if len(wantRefused) == 0 || len(wantAcked) == 0 {
					t.Errorf("two shards down: model acks %d, refuses %d; want both > 0", len(wantAcked), len(wantRefused))
				}
			}

			// Every acked event sits on exactly rf shards — no spare hedge
			// copy for events whose owners were all up — and a refused one
			// on fewer than quorum.
			copies := make(map[uint64]int)
			for _, sp := range spies {
				for s := range shardStamps(t, sp.LocalShard) {
					copies[s]++
				}
			}
			for _, s := range wantAcked {
				if copies[s] != rf {
					t.Errorf("acked stamp %d stored on %d shards, want %d", s, copies[s], rf)
				}
			}
			for _, s := range wantRefused {
				if copies[s] >= quorum(rf) {
					t.Errorf("refused stamp %d stored on %d shards", s, copies[s])
				}
			}
		})
	}
}

// holdStore parks its first append until released, pinning one delivery
// in flight.
type holdStore struct {
	Replica
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *holdStore) AppendBatch(b *store.Batch, rows []int32) error {
	if h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
	return h.Replica.AppendBatch(b, rows)
}

// TestKillDuringInflightDelivery kills a shard while one delivery is
// applying on it and concurrent writers keep ingesting. Kill must wait
// the in-flight delivery out; afterwards no delivery the shard nacked
// may have counted toward an ack or left readable data on it, and every
// acked stamp must be readable from the survivors.
func TestKillDuringInflightDelivery(t *testing.T) {
	hold := &holdStore{entered: make(chan struct{}), release: make(chan struct{})}
	hold.armed.Store(true)
	d, spies := newSpyCluster(t, 4, Config{Replication: 2, HedgeLimit: 2, Gate: gateOff(), RecordStamps: true},
		func(i int) func(Replica) Replica {
			if i != 1 {
				return nil
			}
			return func(ds Replica) Replica {
				hold.Replica = ds
				return hold
			}
		})
	victim := spies[1]

	var (
		next    atomic.Uint64
		mu      sync.Mutex
		acked   = make(map[uint64]bool)
		writers sync.WaitGroup
	)
	write := func(tids ...uint32) {
		const perBatch = 64
		hi := next.Add(perBatch)
		es := events(perBatch, hi-perBatch+1, tids...)
		// One writer owns each TID, so per-thread stamps only rise.
		res := d.Ingest("", es)
		if got := res.Throttled + res.GateDropped + res.Acked + res.Refused; got != res.Seen {
			t.Errorf("accounting identity broken: %+v", res)
		}
		mu.Lock()
		for _, s := range res.AckedStamps {
			acked[s] = true
		}
		mu.Unlock()
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			tids := make([]uint32, 16)
			for i := range tids {
				tids[i] = uint32(1000*(w+1) + i)
			}
			for b := 0; b < 20; b++ {
				write(tids...)
			}
		}()
	}

	<-hold.entered // a delivery is now applying on the victim
	killed := make(chan struct{})
	go func() {
		victim.Kill()
		close(killed)
	}()
	for victim.Healthy() {
		runtime.Gosched() // until Kill has marked the shard down
	}
	select {
	case <-killed:
		t.Fatal("Kill returned with a delivery still in flight")
	default:
	}
	close(hold.release)
	<-killed
	writers.Wait()
	write(7000, 7001, 7002, 7003, 7004, 7005, 7006, 7007) // and one batch certainly after the kill

	// No nacked delivery was counted: every acked stamp has a quorum of
	// deliveries that returned nil, on distinct shards.
	applied := make(map[uint64]int)
	onVictim, nackedByVictim := make(map[uint64]bool), make(map[uint64]bool)
	for _, sp := range spies {
		okHere := make(map[uint64]bool)
		for _, dl := range sp.deliveries() {
			for _, s := range dl.stamps {
				if dl.err == nil {
					okHere[s] = true
				} else if sp == victim {
					nackedByVictim[s] = true
				}
			}
		}
		for s := range okHere {
			applied[s]++
			if sp == victim {
				onVictim[s] = true
			}
		}
	}
	if len(nackedByVictim) == 0 || len(onVictim) == 0 {
		t.Fatalf("scenario degenerate: victim applied %d stamps, nacked %d", len(onVictim), len(nackedByVictim))
	}
	for s := range acked {
		if applied[s] < quorum(2) {
			t.Errorf("stamp %d acked on %d applied deliveries", s, applied[s])
		}
	}
	// Nothing the victim nacked is in its store.
	stored := shardStamps(t, victim.LocalShard)
	for s := range nackedByVictim {
		if stored[s] && !onVictim[s] {
			t.Errorf("stamp %d nacked by the killed shard but readable on it", s)
		}
	}
	// Nothing acked is lost: the survivors serve every acked stamp.
	cur, err := d.Query(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	readable := make(map[uint64]bool)
	for _, e := range drainAll(t, cur) {
		readable[e.Stamp] = true
	}
	for s := range acked {
		if !readable[s] {
			t.Errorf("acked stamp %d unreadable after the kill", s)
		}
	}
	if len(acked) == 0 {
		t.Fatal("nothing acked; scenario degenerate")
	}
}

// TestFrontDoorVerifierIsPerThread is the regression test for the
// cluster quarantining what it stores: verification used to run in
// every shard on a stream that interleaves threads across shards, so
// healthy traffic tripped the global stamp-order check. At the front
// door, in unordered mode, per-thread-monotone input from interleaved
// clients quarantines nothing — and a genuine per-thread regression is
// still flagged, still replicated, still counted.
func TestFrontDoorVerifierIsPerThread(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	a := []uint32{10, 11, 12, 13, 14, 15, 16, 17}
	b := []uint32{20, 21, 22, 23, 24, 25, 26, 27}
	// Client b's k-th batch carries lower stamps than client a's, and a
	// is ingested first: the multiplexed stream steps backwards at every
	// hand-over while each thread's own stamps only rise.
	const rounds = 10
	for k := 0; k < rounds; k++ {
		base := uint64(k*256 + 1)
		for _, batch := range [][]tracer.Entry{events(64, base+64, a...), events(64, base, b...)} {
			if res := d.Ingest("", batch); res.Acked != 64 {
				t.Fatalf("round %d: %+v, want 64 acked", k, res)
			}
		}
	}
	if q := d.Stats().Quarantined; q != 0 {
		t.Fatalf("%d events quarantined from per-thread-monotone input", q)
	}
	stored := func() (n uint64) {
		for _, sh := range locals {
			n += sh.Events()
		}
		return n
	}
	if got := stored(); got != 2*rounds*128 {
		t.Fatalf("cluster stores %d events, want %d", got, 2*rounds*128)
	}

	// Thread 10 now re-sends a stamp below its last: quarantined, yet
	// acked and stored on both of its owners beside the clean event.
	const regressed, fresh = 200, 5000
	res := d.Ingest("", []tracer.Entry{
		{Stamp: regressed, TS: regressed * 1000, TID: 10, Category: 1, Level: 1},
		{Stamp: fresh, TS: fresh * 1000, TID: 10, Category: 1, Level: 1},
	})
	if res.Acked != 2 || res.Refused != 0 {
		t.Fatalf("regressed batch: %+v, want both events acked", res)
	}
	if q := d.Stats().Quarantined; q != 1 {
		t.Fatalf("%d events quarantined, want exactly the regressed one", q)
	}
	if got := stored(); got != 2*rounds*128+4 {
		t.Fatalf("cluster stores %d events, want %d", got, 2*rounds*128+4)
	}
	holders := 0
	for _, sh := range locals {
		if shardStamps(t, sh)[regressed] {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("quarantined stamp stored on %d shards, want its 2 owners", holders)
	}
}
