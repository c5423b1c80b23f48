package ring

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%02d", i)
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%d/stream-%d", i%7, i)
	}
	return out
}

func mustRing(t *testing.T, shards []string, cfg Config) *Ring {
	t.Helper()
	r, err := New(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty shard set accepted")
	}
	if _, err := New([]string{"a", "a"}, Config{}); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := New([]string{""}, Config{}); err == nil {
		t.Fatal("empty shard name accepted")
	}
	r := mustRing(t, []string{"a"}, Config{Replicas: 2})
	if rf := r.RF(); rf != 1 {
		t.Fatalf("RF over 1 shard = %d, want clamped to 1", rf)
	}
	if _, err := r.Remove("a"); err == nil {
		t.Fatal("removing the last shard accepted")
	}
	if _, err := r.Remove("zz"); err == nil {
		t.Fatal("removing an unknown shard accepted")
	}
	if _, err := r.Add("a"); err == nil {
		t.Fatal("re-adding an existing shard accepted")
	}
}

// Placement must be a pure function of (topology, key): two rings built
// from the same shard set — in any order — agree on every lookup.
func TestRingDeterministic(t *testing.T) {
	cfg := Config{Replicas: 2}
	a := mustRing(t, []string{"shard-00", "shard-01", "shard-02", "shard-03"}, cfg)
	b := mustRing(t, []string{"shard-03", "shard-01", "shard-00", "shard-02"}, cfg)
	for _, k := range keys(5000) {
		oa, ob := a.LookupN(k, a.RF()), b.LookupN(k, b.RF())
		if len(oa) != 2 || len(ob) != 2 {
			t.Fatalf("LookupN(%q) sizes %d/%d, want 2", k, len(oa), len(ob))
		}
		if oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("LookupN(%q) differs across construction orders: %v vs %v", k, oa, ob)
		}
		if oa[0] == oa[1] {
			t.Fatalf("LookupN(%q) returned duplicate owners %v", k, oa)
		}
	}
}

// Every shard must receive within 10% of its fair share of keys, both
// as primary and across full owner sets, and the arc-length Ownership
// view must agree.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{3, 4, 8} {
		r := mustRing(t, names(n), Config{Replicas: 2})
		const nkeys = 40000
		primary := map[string]int{}
		all := map[string]int{}
		for _, k := range keys(nkeys) {
			owners := r.LookupN(k, r.RF())
			primary[owners[0]]++
			for _, o := range owners {
				all[o]++
			}
		}
		checkBalance := func(counts map[string]int, total int, what string) {
			t.Helper()
			fair := float64(total) / float64(n)
			for _, name := range r.Shards() {
				dev := math.Abs(float64(counts[name])-fair) / fair
				if dev > 0.10 {
					t.Errorf("n=%d %s: shard %s holds %d of %d keys, %.1f%% off fair share",
						n, what, name, counts[name], total, dev*100)
				}
			}
		}
		checkBalance(primary, nkeys, "primary")
		checkBalance(all, 2*nkeys, "replica-set")

		own := r.Ownership()
		var sum float64
		for _, f := range own {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: ownership fractions sum to %v, want 1", n, sum)
		}
		for name, f := range own {
			if dev := math.Abs(f-1/float64(n)) / (1 / float64(n)); dev > 0.10 {
				t.Errorf("n=%d: shard %s owns %.4f of the circle, %.1f%% off fair share", n, name, f, dev*100)
			}
		}
	}
}

// Adding a shard to an N-shard ring must move at most 1/(N+1) + eps of
// primary placements, and every moved key must move TO the new shard —
// placement among the old shards never reshuffles.
func TestRingAddMovesBoundedKeys(t *testing.T) {
	const nkeys = 40000
	for _, n := range []int{3, 4, 8} {
		old := mustRing(t, names(n), Config{Replicas: 2})
		grown, err := old.Add(fmt.Sprintf("shard-%02d", n))
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys(nkeys) {
			a, b := old.LookupN(k, old.RF())[0], grown.LookupN(k, grown.RF())[0]
			if a != b {
				moved++
				if b != fmt.Sprintf("shard-%02d", n) {
					t.Fatalf("n=%d: key %q moved %s -> %s, not to the new shard", n, k, a, b)
				}
			}
		}
		limit := 1/float64(n+1) + 0.03
		if frac := float64(moved) / nkeys; frac > limit {
			t.Errorf("n=%d: add moved %.3f of keys, limit %.3f", n, frac, limit)
		}
	}
}

// Removing a shard must leave the owner set of every key that did not
// include it exactly unchanged, and keys it owned must re-place onto
// roughly 1/N of the space per surviving shard.
func TestRingRemoveMovesOnlyOwnedRanges(t *testing.T) {
	const nkeys = 40000
	for _, n := range []int{4, 8} {
		old := mustRing(t, names(n), Config{Replicas: 2})
		victim := "shard-01"
		shrunk, err := old.Remove(victim)
		if err != nil {
			t.Fatal(err)
		}
		owned := 0
		for _, k := range keys(nkeys) {
			before, after := old.LookupN(k, old.RF()), shrunk.LookupN(k, shrunk.RF())
			had := false
			for _, o := range before {
				if o == victim {
					had = true
				}
			}
			if !had {
				if len(before) != len(after) || before[0] != after[0] || before[1] != after[1] {
					t.Fatalf("n=%d: key %q not owned by %s but owners changed %v -> %v",
						n, k, victim, before, after)
				}
				continue
			}
			owned++
			// The survivors keep their slots; exactly one new owner joins.
			kept := map[string]bool{}
			for _, o := range after {
				kept[o] = true
			}
			for _, o := range before {
				if o != victim && !kept[o] {
					t.Fatalf("n=%d: key %q lost surviving owner %s on remove: %v -> %v",
						n, k, o, before, after)
				}
			}
		}
		// RF=2 of N shards: the victim appears in about 2/N of owner sets.
		frac := float64(owned) / nkeys
		expect := 2 / float64(n)
		if math.Abs(frac-expect) > 0.05 {
			t.Errorf("n=%d: victim owned %.3f of keys, expected about %.3f", n, frac, expect)
		}
	}
}

// LookupN beyond RF extends the same walk: the first RF entries equal
// the owner set, and entries stay distinct — the hedging contract.
func TestRingLookupNExtendsWalk(t *testing.T) {
	r := mustRing(t, names(5), Config{Replicas: 2})
	for _, k := range keys(2000) {
		owners := r.LookupN(k, r.RF())
		ext := r.LookupN(k, 4)
		if len(ext) != 4 {
			t.Fatalf("LookupN(4) returned %d owners", len(ext))
		}
		if ext[0] != owners[0] || ext[1] != owners[1] {
			t.Fatalf("LookupN prefix %v disagrees with the owners %v", ext[:2], owners)
		}
		seen := map[string]bool{}
		for _, o := range ext {
			if seen[o] {
				t.Fatalf("LookupN(%q) repeated owner %s: %v", k, o, ext)
			}
			seen[o] = true
		}
	}
	if got := r.LookupN("k", 99); len(got) != 5 {
		t.Fatalf("LookupN clamped to %d, want 5", len(got))
	}
}

// Integer-key lookups must place exactly where the decimal-string
// lookups do — on-disk cluster directories were laid out by the string
// form — on the base ring and on rings derived by Add and Remove.
func TestRingOwnersMatchLookupN(t *testing.T) {
	base := mustRing(t, names(4), Config{Replicas: 2})
	added, err := base.Add("shard-99")
	if err != nil {
		t.Fatal(err)
	}
	removed, err := base.Remove("shard-02")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tids := []uint64{0, 9, 10, math.MaxUint32, math.MaxUint64}
	for len(tids) < 100_000 {
		tids = append(tids, uint64(rng.Uint32()))
	}
	var idx []int
	for _, r := range []*Ring{base, added, removed} {
		shards := r.Shards()
		for _, tid := range tids {
			for _, n := range []int{2, 3} {
				want := r.LookupN(strconv.FormatUint(tid, 10), n)
				idx = r.Owners(idx[:0], tid, n)
				if len(idx) != len(want) {
					t.Fatalf("tid %d: Owners returned %d shards, LookupN %d", tid, len(idx), len(want))
				}
				for i, si := range idx {
					if shards[si] != want[i] {
						t.Fatalf("tid %d on %v: Owners[%d] = %s, LookupN says %v", tid, shards, i, shards[si], want)
					}
				}
			}
		}
	}
}

// A golden of (tid → ring walk) on the default 4-shard ring, recorded
// before integer keys existed: a change to the hash, the vnode labels
// or the walk order re-places every stored stream and must not land
// silently.
func TestRingPlacementGolden(t *testing.T) {
	r := mustRing(t, names(4), Config{Replicas: 2})
	golden := []struct {
		tid  uint64
		walk string
	}{
		{0, "shard-03 shard-02 shard-00"},
		{1, "shard-02 shard-01 shard-03"},
		{7, "shard-02 shard-03 shard-00"},
		{42, "shard-02 shard-03 shard-00"},
		{100, "shard-02 shard-00 shard-01"},
		{1000, "shard-03 shard-00 shard-02"},
		{65535, "shard-00 shard-01 shard-02"},
		{math.MaxUint32, "shard-03 shard-02 shard-00"},
		{math.MaxUint64, "shard-03 shard-02 shard-00"},
	}
	shards := r.Shards()
	for _, g := range golden {
		if got := strings.Join(r.LookupN(strconv.FormatUint(g.tid, 10), 3), " "); got != g.walk {
			t.Errorf("LookupN(%d) = %s, golden %s", g.tid, got, g.walk)
		}
		var got []string
		for _, si := range r.Owners(nil, g.tid, 3) {
			got = append(got, shards[si])
		}
		if s := strings.Join(got, " "); s != g.walk {
			t.Errorf("Owners(%d) = %s, golden %s", g.tid, s, g.walk)
		}
	}
}

// The ingest path resolves a ring walk per TID per batch; it must not
// allocate (the string form cost a FormatUint and an owners slice each).
func TestRingOwnersDoesNotAllocate(t *testing.T) {
	r := mustRing(t, names(4), Config{Replicas: 2})
	var buf [3]int
	tid := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		if len(r.Owners(buf[:0], tid, 3)) != 3 {
			t.Fatal("short walk")
		}
	}); n != 0 {
		t.Fatalf("Owners allocates %v times per lookup, want 0", n)
	}
}

// TestRingOwnersMemo pins what the owner memo saves and what it must
// not change: a key's first lookup walks, a repeat at the same or a
// narrower width does not, a wider one walks once more and is then
// remembered at that width; keys past 32 bits, walks wider than an
// entry packs and rings of more than 64 shards walk every time; and a
// derived ring starts with nothing remembered. Every answer is LookupN's.
func TestRingOwnersMemo(t *testing.T) {
	r := mustRing(t, names(4), Config{Replicas: 2})
	var buf []int
	check := func(r *Ring, key uint64, n int, walks uint64) {
		t.Helper()
		want := r.LookupN(strconv.FormatUint(key, 10), n)
		before := r.Walks()
		buf = r.Owners(buf[:0], key, n)
		if got := r.Walks() - before; got != walks {
			t.Fatalf("Owners(%d, %d) ran %d walks, want %d", key, n, got, walks)
		}
		shards := r.Shards()
		if len(buf) != len(want) {
			t.Fatalf("Owners(%d, %d) = %v, LookupN %v", key, n, buf, want)
		}
		for i, si := range buf {
			if shards[si] != want[i] {
				t.Fatalf("Owners(%d, %d)[%d] = %s, LookupN %v", key, n, i, shards[si], want)
			}
		}
	}
	check(r, 7, 2, 1) // first sight
	check(r, 7, 2, 0)
	check(r, 7, 1, 0) // a prefix of what is remembered
	check(r, 7, 3, 1) // wider: walked again, remembered at 3
	check(r, 7, 3, 0)
	check(r, 7, 2, 0)
	check(r, 7, 9, 1) // clamped to 4 shards, wider than 3
	check(r, 7, 4, 0)
	check(r, 0, 3, 1) // key 0 is not the empty slot
	check(r, 0, 3, 0)
	check(r, math.MaxUint32, 3, 1)
	check(r, math.MaxUint32, 3, 0)
	check(r, math.MaxUint32+1, 3, 1) // past 32 bits: never remembered
	check(r, math.MaxUint32+1, 3, 1)

	added, err := r.Add("shard-99")
	if err != nil {
		t.Fatal(err)
	}
	check(added, 7, 3, 1) // nothing carried over from r
	check(added, 7, 3, 0)
	check(added, 7, 5, 1) // five shards: wider than an entry packs
	check(added, 7, 5, 1)

	big := mustRing(t, names(65), Config{Replicas: 2})
	check(big, 7, 2, 1) // shard indexes past 6 bits
	check(big, 7, 2, 1)
}

// TestRingMemoBounded: the memo is a fixed table. A stream of a million
// distinct thread ids — what a hostile client can send — allocates
// nothing and walks each key once a pass (the table holds a few
// thousand of them), and afterwards every slot holds a walk that is
// LookupN's answer for its key.
func TestRingMemoBounded(t *testing.T) {
	r := mustRing(t, names(4), Config{Replicas: 2})
	const distinct = 1 << 20
	var buf [3]int
	if n := testing.AllocsPerRun(1, func() {
		for tid := uint64(0); tid < distinct; tid++ {
			r.Owners(buf[:0], tid*7919, 3)
		}
	}); n != 0 {
		t.Fatalf("a stream of %d distinct keys allocated %v times", distinct, n)
	}
	// AllocsPerRun runs the function once more as a warm-up.
	if w := r.Walks(); w != 2*distinct {
		t.Fatalf("%d walks over two passes of %d distinct keys, want one per key per pass", w, distinct)
	}
	shards := r.Shards()
	filled := 0
	for i := range r.memo {
		w := r.memo[i].Load()
		n := memoLen(w)
		if n == 0 {
			continue
		}
		filled++
		key := uint64(uint32(w))
		if memoSlot(key) != uint32(i) {
			t.Fatalf("slot %d holds key %d, which maps to slot %d", i, key, memoSlot(key))
		}
		want := r.LookupN(strconv.FormatUint(key, 10), n)
		for j := range n {
			if si := memoShard(w, j); shards[si] != want[j] {
				t.Fatalf("slot %d: key %d's walk[%d] = %s, LookupN %v", i, key, j, shards[si], want)
			}
		}
	}
	if filled != memoSlots {
		t.Fatalf("%d of %d slots filled after %d distinct keys", filled, memoSlots, distinct)
	}
}

// TestRingOwnersMemoConcurrent: lookups racing on one ring — as
// concurrent Ingests do — over more keys than the table has slots, at
// mixed widths, so that fills overwrite each other's entries, each get
// LookupN's answer. Run under -race (make cluster-chaos).
func TestRingOwnersMemoConcurrent(t *testing.T) {
	r := mustRing(t, names(4), Config{Replicas: 2})
	const keys = 3 * memoSlots
	want := make([][]int, keys)
	for k := range want {
		for _, name := range r.LookupN(strconv.Itoa(k), 4) {
			want[k] = append(want[k], sort.SearchStrings(r.Shards(), name))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []int
			for i := 0; i < 50_000; i++ {
				k, n := rng.Intn(keys), 1+rng.Intn(4)
				buf = r.Owners(buf[:0], uint64(k), n)
				if !slices.Equal(buf, want[k][:n]) {
					t.Errorf("Owners(%d, %d) = %v, want %v", k, n, buf, want[k][:n])
					return
				}
			}
		}()
	}
	wg.Wait()
}
