package distributor

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// flakySink fails the next failNext appends: deliveries are refused
// while the shard stays healthy, which is what makes the distributor
// hedge and refuse.
type flakySink struct {
	Replica
	failNext atomic.Int64
	fired    atomic.Int64
}

func (f *flakySink) AppendBatch(b *store.Batch, rows []int32) error {
	for n := f.failNext.Load(); n > 0; n = f.failNext.Load() {
		if f.failNext.CompareAndSwap(n, n-1) {
			f.fired.Add(1)
			return errInjected
		}
	}
	return f.Replica.AppendBatch(b, rows)
}

// diffCluster is a cluster of disk-backed shards the differential test
// steps through topology changes, faults and restarts.
type diffCluster struct {
	t         *testing.T
	rng       *rand.Rand
	root      string
	cfg       Config
	d         *Distributor
	locals    map[string]*LocalShard
	faults    map[string]*flakySink
	nextShard int
	nextStamp uint64
	// clean: every event so far is on every owner of its thread exactly
	// once and nowhere else, so the pushdown must verify.
	clean bool
	// epoch is the first stamp issued after the last step that was not
	// plain ingest. Whatever that step left behind — a replica short of
	// a batch, a hedged copy, the copies a join strands on the owner it
	// displaced — has older stamps, so over the stamps from epoch on the
	// pushdown must verify again as soon as every shard is up.
	epoch uint64
}

func (c *diffCluster) open(name string) *LocalShard {
	c.t.Helper()
	// Small segments, so a pass spans many of them; freezable, so the
	// freeze step can turn some of them columnar.
	st, err := store.Open(filepath.Join(c.root, name), store.Config{SegmentBytes: 8 << 10, ColdAfterNs: 1})
	if err != nil {
		c.t.Fatal(err)
	}
	f := &flakySink{}
	sh, err := NewLocalShard(LocalConfig{Name: name, Store: st, WrapStore: func(s Replica) Replica {
		f.Replica = s
		return f
	}})
	if err != nil {
		c.t.Fatal(err)
	}
	c.locals[name], c.faults[name] = sh, f
	return sh
}

// boot opens the named shards and puts a fresh distributor over them.
func (c *diffCluster) boot(names []string) {
	c.t.Helper()
	c.locals, c.faults = make(map[string]*LocalShard), make(map[string]*flakySink)
	shards := make([]Shard, len(names))
	for i, name := range names {
		shards[i] = c.open(name)
	}
	d, err := New(shards, c.cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	c.d = d
}

func (c *diffCluster) names() []string {
	var names []string
	for _, sh := range c.d.Shards() {
		names = append(names, sh.Name())
	}
	return names
}

// up lists the shards that are up.
func (c *diffCluster) up() []*LocalShard {
	var up []*LocalShard
	for _, name := range c.names() {
		if sh := c.locals[name]; sh.Healthy() {
			up = append(up, sh)
		}
	}
	return up
}

// live picks a random shard that is up; one always is.
func (c *diffCluster) live() *LocalShard {
	up := c.up()
	return up[c.rng.Intn(len(up))]
}

// batch builds n events over a dozen threads, stamps taken from the
// cluster-wide sequence.
func (c *diffCluster) batch(n int) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		c.nextStamp++
		s := c.nextStamp
		es[i] = tracer.Entry{
			Stamp: s, TS: s * 700, Core: uint8(c.rng.Intn(4)), TID: uint32(100 + c.rng.Intn(12)),
			Category: uint8(c.rng.Intn(5)), Level: 1, Payload: []byte(fmt.Sprintf("e%d", s)),
		}
	}
	return es
}

// ingest runs two writers side by side, a few batches each.
func (c *diffCluster) ingest() {
	var batches [2][][]tracer.Entry
	for w := range batches {
		for k := 1 + c.rng.Intn(3); k > 0; k-- {
			batches[w] = append(batches[w], c.batch(1+c.rng.Intn(64)))
		}
	}
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, es := range batches[w] {
				c.d.Ingest("", es)
			}
		}()
	}
	wg.Wait()
}

// step makes one random move and returns its name. Every move leaves
// every shard up.
func (c *diffCluster) step() string {
	name := c.move()
	if name != "ingest" {
		c.epoch = c.nextStamp + 1
	}
	return name
}

func (c *diffCluster) move() string {
	t := c.t
	switch p := c.rng.Intn(100); {
	case p < 40:
		c.ingest()
		return "ingest"
	case p < 52:
		// Refused deliveries on one or two healthy shards: a delivery is
		// one append, so each of the next one or two batches routed there
		// is hedged, or refused with a copy left on whoever did apply it
		// — the hedge candidate alone, when both owners refused.
		up := c.up()
		c.rng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
		up = up[:min(len(up), 1+c.rng.Intn(2))]
		var fired int64
		for _, sh := range up {
			fired -= c.faults[sh.Name()].fired.Load()
			c.faults[sh.Name()].failNext.Store(int64(1 + c.rng.Intn(2)))
		}
		c.ingest()
		for _, sh := range up {
			c.faults[sh.Name()].failNext.Store(0)
			fired += c.faults[sh.Name()].fired.Load()
		}
		if fired > 0 {
			c.clean = false
		}
		return fmt.Sprintf("fault on %d shards", len(up))
	case p < 60:
		// A shard dies, the writers go on beside it, and then it is given
		// up (crash-removed or drained, which for a dead shard is the same)
		// or the whole cluster restarts and it comes back behind.
		if len(c.up()) <= 3 {
			return "kill (skipped)"
		}
		sh := c.live()
		sh.Kill()
		c.clean = false
		c.ingest()
		c.check("kill " + sh.Name())
		switch c.rng.Intn(3) {
		case 0:
			c.remove(sh.Name(), c.d.RemoveShard)
			return "kill, remove " + sh.Name()
		case 1:
			c.remove(sh.Name(), func(name string) (Shard, error) {
				sh, _, err := c.d.DrainShard(name)
				if err == nil {
					t.Fatalf("DrainShard(%s) read a killed shard", name)
				}
				return sh, nil
			})
			return "kill, drain " + sh.Name()
		default:
			c.restart()
			return "kill, restart " + sh.Name()
		}
	case p < 68:
		if names := c.names(); len(names) > 3 {
			name := names[c.rng.Intn(len(names))]
			c.remove(name, c.d.RemoveShard)
			c.clean = false // its ranges' new owners were handed nothing
			return "remove " + name
		}
		return "remove (skipped)"
	case p < 76:
		if names := c.names(); len(names) > 3 {
			name := names[c.rng.Intn(len(names))]
			c.remove(name, func(name string) (Shard, error) {
				sh, rep, err := c.d.DrainShard(name)
				if rep.Failed > 0 {
					t.Fatalf("DrainShard(%s) failed to re-place %d events on a healthy cluster", name, rep.Failed)
				}
				return sh, err
			})
			return "drain " + name
		}
		return "drain (skipped)"
	case p < 84:
		if len(c.names()) < 6 {
			c.nextShard++
			name := fmt.Sprintf("shard-%02d", c.nextShard)
			if _, err := c.d.AddShard(c.open(name)); err != nil {
				t.Fatal(err)
			}
			c.clean = false // the owners it displaced keep their copies
			return "add " + name
		}
		return "add (skipped)"
	case p < 92:
		sh := c.live()
		if err := sh.st.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.st.CompactCold(); err != nil {
			t.Fatal(err)
		}
		return "freeze " + sh.Name()
	default:
		c.restart()
		return "restart"
	}
}

// remove takes a shard out of the cluster by way of how and closes it.
func (c *diffCluster) remove(name string, how func(string) (Shard, error)) {
	c.t.Helper()
	sh, err := how(name)
	if err != nil {
		c.t.Fatal(err)
	}
	sh.Close()
	delete(c.locals, name)
}

// restart closes every shard directory and reopens it, killed ones
// included, under a distributor that remembers nothing.
func (c *diffCluster) restart() {
	c.t.Helper()
	names := c.names()
	if err := c.d.Close(); err != nil {
		c.t.Fatal(err)
	}
	c.boot(names)
}

var diffSpecs = []btql.AggSpec{
	{Kind: btql.AggCount},
	{Kind: btql.AggRate, WindowNs: 50_000},
	{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
	{Kind: btql.AggTopK, K: 3, Field: btql.FCategory},
	{Kind: btql.AggTopK, K: 3, Field: btql.FCore},
}

// check holds every aggregate kind, with and without a payload
// predicate, over everything and over the current epoch, against the
// merged fold: through Aggregate, and through the shards' parts
// whenever they verify — which they must while every shard is up and
// nothing that matches has gone wrong yet, and must not be asked to
// with a shard down.
func (c *diffCluster) check(after string) {
	t := c.t
	t.Helper()
	healthy := len(c.up()) == len(c.names())
	for _, src := range []string{"", `payload contains "7"`, `category == 2 && payload contains "3"`} {
		for _, from := range []uint64{0, c.epoch} {
			var filter btql.Expr
			if src != "" {
				filter = predOf(t, src).Expr()
			}
			q := store.Query{Pred: where(btql.Between(btql.FStamp, from, 0), filter)}
			what := fmt.Sprintf("%q from stamp %d", src, from)
			want, wantMissed, err := c.d.aggregateMerged(q, diffSpecs)
			if err != nil {
				t.Fatalf("after %s: merged fold of %s: %v", after, what, err)
			}
			got, missed, err := c.d.Aggregate(q, diffSpecs)
			if err != nil || missed != wantMissed || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: Aggregate(%s) = %+v (missed %d, err %v)\nmerged fold: %+v (missed %d)", after, what, got, missed, err, want, wantMissed)
			}
			aggs, _, reason := c.d.pushdown(q, diffSpecs)
			switch {
			case !healthy && reason != fallbackUnhealthy:
				t.Fatalf("after %s: pushdown of %s with a shard down: reason %q, want %q", after, what, reason, fallbackUnhealthy)
			case healthy && (c.clean || from > 0) && reason != "":
				t.Fatalf("after %s: pushdown of %s fell back (%s) with every shard up and every match in place", after, what, reason)
			}
			if reason != "" {
				continue
			}
			if got := aggResults(aggs); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: the shards' parts verified for %s but add up to %+v\nmerged fold: %+v", after, what, got, want)
			}
		}
	}
}

// where is how these tests spell a filter: the BTQL predicate of es
// ANDed in order (a nil one adds nothing), match-all for none.
func where(es ...btql.Expr) *btql.Predicate { return btql.Compile(btql.AllOf(es...)) }

func predOf(t *testing.T, src string) *btql.Predicate {
	t.Helper()
	q, err := btql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q.Predicate()
}

// TestAggregatePushdownMatchesMerged is the differential test of the
// two aggregate paths: a seeded random walk over ingest from two
// writers, refused deliveries on healthy shards, Kill, RemoveShard,
// DrainShard, AddShard, freezes and whole-cluster restarts, after every
// step of which every aggregate answers the same through the shards'
// partials (when they verify) as through the merged fold — and the
// partials must verify while nothing has gone wrong yet, and must not
// be asked once a shard is down.
//
// One difference is deliberate and not walked into here: see
// TestAggregateCountsACopyOnEveryReplica.
func TestAggregatePushdownMatchesMerged(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			c := &diffCluster{
				t: t, rng: rand.New(rand.NewSource(seed)), root: t.TempDir(),
				cfg: Config{Replication: 2, Gate: gateOff()}, nextShard: 3, clean: true, epoch: 1,
			}
			if seed%2 == 0 {
				// No hedging: a refused delivery leaves no copy on a shard
				// that does not own the thread, so nothing but the owners'
				// fingerprints shows that one of them is behind.
				c.cfg.HedgeLimit = -1
			}
			if seed%3 == 0 {
				c.cfg.Replication = 3 // every counted row is held twice more
			}
			c.boot([]string{"shard-00", "shard-01", "shard-02", "shard-03"})
			t.Cleanup(func() { c.d.Close() })
			c.ingest()
			c.check("the first ingest")
			for i := 0; i < 32; i++ {
				c.check(fmt.Sprintf("step %d (%s)", i, c.step()))
			}
		})
	}
}

// TestAggregateFallsBackWhenFirstOwnerIsBehind: the shard that counts a
// thread refused one delivery, the hedge made quorum without it, and
// every shard is healthy. Nothing but the fingerprints can tell, and
// they do: the aggregate takes the merged fold and counts the event.
func TestAggregateFallsBackWhenFirstOwnerIsBehind(t *testing.T) {
	c := &diffCluster{
		t: t, rng: rand.New(rand.NewSource(1)), root: t.TempDir(),
		cfg: Config{Replication: 2, Gate: gateOff()}, clean: true,
	}
	c.boot([]string{"shard-00", "shard-01", "shard-02", "shard-03"})
	t.Cleanup(func() { c.d.Close() })
	const tid = 4242
	first := ownersOf(c.d.ring, tid)[0]
	ev := func(stamp uint64) []tracer.Entry {
		return []tracer.Entry{{Stamp: stamp, TS: stamp, TID: tid, Level: 1}}
	}
	count := []btql.AggSpec{{Kind: btql.AggCount}}

	c.d.Ingest("", ev(1))
	if res, _, err := c.d.Aggregate(store.Query{}, count); err != nil || res[0].Events != 1 {
		t.Fatalf("count() = %+v, %v", res, err)
	}
	if s := c.d.obs; s.aggPushdown.Load() != 1 || s.aggMerged.Load() != 0 {
		t.Fatalf("clean cluster: %d pushdown, %d merged, want the pushdown to answer", s.aggPushdown.Load(), s.aggMerged.Load())
	}

	c.faults[first].failNext.Store(4)
	if res := c.d.Ingest("", ev(2)); res.Acked != 1 || c.d.Stats().Hedges != 1 {
		t.Fatalf("acked %d with %d hedges, want the hedge to make quorum", res.Acked, c.d.Stats().Hedges)
	}
	if res, _, err := c.d.Aggregate(store.Query{}, count); err != nil || res[0].Events != 2 {
		t.Fatalf("count() = %+v, %v, want both acked events", res, err)
	}
	if s := c.d.obs; s.aggMerged.Load() != 1 || s.aggFallbacks[fallbackMismatch].Load() != 1 {
		t.Fatalf("first owner behind: %d merged, %d mismatches, want the fallback", s.aggMerged.Load(), s.aggFallbacks[fallbackMismatch].Load())
	}
	// A query the missed event does not match still verifies.
	if _, _, reason := c.d.pushdown(store.Query{Pred: where(btql.Between(btql.FStamp, 0, 1))}, count); reason != "" {
		t.Fatalf("pushdown over the stamps before the fault fell back: %s", reason)
	}
}

// TestAggregateFallsBackOnACopyNobodyOwns: both owners of a thread
// refused a delivery and the hedge candidate applied it, so the event
// is refused, every shard is healthy, the owners agree with each other
// — they hold nothing — and a shard that does not own the thread holds
// a copy the merged fold reads. The fingerprints of the owners cannot
// show that, so a copy nobody owns is a mismatch by itself.
func TestAggregateFallsBackOnACopyNobodyOwns(t *testing.T) {
	c := &diffCluster{
		t: t, rng: rand.New(rand.NewSource(1)), root: t.TempDir(),
		cfg: Config{Replication: 2, Gate: gateOff()},
	}
	c.boot([]string{"shard-00", "shard-01", "shard-02", "shard-03"})
	t.Cleanup(func() { c.d.Close() })
	const tid = 4242
	for _, owner := range ownersOf(c.d.ring, tid) {
		c.faults[owner].failNext.Store(4)
	}
	if res := c.d.Ingest("", []tracer.Entry{{Stamp: 1, TS: 1, TID: tid, Level: 1}}); res.Refused != 1 || c.d.Stats().Hedges != 1 {
		t.Fatalf("refused %d with %d hedges, want the event refused with its hedge applied", res.Refused, c.d.Stats().Hedges)
	}
	count := []btql.AggSpec{{Kind: btql.AggCount}}
	want, _, err := c.d.aggregateMerged(store.Query{}, count)
	if err != nil || want[0].Events != 1 {
		t.Fatalf("merged fold = %+v, %v, want the hedged copy counted", want, err)
	}
	if _, _, reason := c.d.pushdown(store.Query{}, count); reason != fallbackMismatch {
		t.Fatalf("pushdown reason %q, want %q", reason, fallbackMismatch)
	}
	if got, _, err := c.d.Aggregate(store.Query{}, count); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Aggregate = %+v, %v, want the merged fold's %+v", got, err, want)
	}
}

// TestAggregateCountsACopyOnEveryReplica pins the one case where the
// two paths disagree on purpose: a batch delivered twice to every one
// of its replicas (a client that retried an acked batch). The shards
// hold each stamp twice and count it twice, exactly as a single store
// does; the merged fold's dedup collapses the copies. A copy on only
// some replicas is a mismatch, and falls back.
func TestAggregateCountsACopyOnEveryReplica(t *testing.T) {
	d, _ := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	count := []btql.AggSpec{{Kind: btql.AggCount}}
	for i := 0; i < 2; i++ {
		if res := d.Ingest("", events(100, 1, 30, 31, 32, 33)); res.Acked != 100 {
			t.Fatalf("acked %d of 100", res.Acked)
		}
	}
	got, _, err := d.Aggregate(store.Query{}, count)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := d.aggregateMerged(store.Query{}, count)
	if err != nil {
		t.Fatal(err)
	}
	single := newTestShard(t, "single")
	defer single.Close()
	for i := 0; i < 2; i++ {
		if err := single.st.AppendEntries(events(100, 1, 30, 31, 32, 33)); err != nil {
			t.Fatal(err)
		}
	}
	one, _, err := single.st.Aggregate(store.Query{}, count)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Events != 200 || one[0].Events != 200 || merged[0].Events != 100 {
		t.Fatalf("batch ingested twice: cluster counts %d, one store %d, merged fold %d; want 200, 200, 100",
			got[0].Events, one[0].Events, merged[0].Events)
	}
}
