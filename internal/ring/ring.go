// Package ring implements the consistent-hash ring that places tenant
// streams onto store shards. It is the distribution tier's only source
// of placement truth: every ingest and every drain asks the ring who
// owns a stream key, and the answer is a pure function of (topology,
// key) — no coordinator state, no rebalancing journal.
//
// The ring hashes each shard onto many virtual nodes (points on a
// 64-bit circle). A key is owned by the first RF distinct shards
// encountered walking clockwise from the key's hash: index 0 is the
// primary, indexes 1..RF-1 the replicas. Virtual nodes give two
// properties the distributor depends on:
//
//   - balance: with the default 1024 points per shard, every shard owns
//     within a few percent of its fair share of the key space;
//   - bounded movement: adding or removing a shard moves only the arcs
//     that shard gains or loses — about 1/N of the keys — and never
//     reshuffles placement among the surviving shards. Owner sets that
//     did not include a removed shard are provably unchanged, which is
//     what makes drain ("re-place only the moved ranges") cheap.
//
// A Ring is immutable; Add and Remove return derived rings. That makes
// topology changes race-free by construction: the distributor swaps one
// pointer, and every in-flight lookup keeps the topology it started
// with.
package ring

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the number of virtual nodes per shard. At 1024
// points the arc-length balance across shards stays within ~10% of fair
// share for any realistic shard count.
const DefaultVNodes = 1024

// Config shapes a Ring.
type Config struct {
	// Replicas is the replication factor: how many distinct shards own
	// each key (default 2, clamped to the shard count).
	Replicas int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	return c
}

// point is one virtual node: a position on the hash circle and the
// index (into Ring.shards) of the shard it belongs to.
type point struct {
	hash  uint64
	shard int32
}

// Ring is an immutable consistent-hash ring. All methods are safe for
// concurrent use.
type Ring struct {
	cfg    Config
	shards []string // sorted, unique
	points []point  // sorted by hash
}

// New builds a ring over the given shard names. Names must be non-empty
// and unique; order does not matter (the ring sorts them, so two rings
// built from the same set are identical).
func New(shards []string, cfg Config) (*Ring, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("ring: no shards")
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	for i, name := range sorted {
		if name == "" {
			return nil, fmt.Errorf("ring: empty shard name")
		}
		if i > 0 && sorted[i-1] == name {
			return nil, fmt.Errorf("ring: duplicate shard %q", name)
		}
	}
	r := &Ring{cfg: cfg, shards: sorted}
	r.points = make([]point, 0, len(sorted)*DefaultVNodes)
	for si, name := range sorted {
		for v := 0; v < DefaultVNodes; v++ {
			h := hash64(name + "#" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, shard: int32(si)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points tie-break on shard name so the ring stays a
		// deterministic function of the shard set.
		return sorted[a.shard] < sorted[b.shard]
	})
	return r, nil
}

// hash64 is FNV-1a over the key bytes followed by a splitmix64-style
// avalanche finalizer. Raw FNV clusters hashes of near-identical inputs
// (vnode labels differ only in a numeric suffix), which skews arc
// ownership by tens of percent; the finalizer diffuses every input bit
// across the word so points land uniformly. Both stages are fixed
// arithmetic — deterministic across processes and platforms, which
// keeps placement stable across restarts.
func hash64[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashUint hashes an integer key as its decimal digits, formatted into
// a stack buffer: the same hash as hash64(strconv.FormatUint(key, 10))
// without the string, so integer and string lookups place identically.
func hashUint(key uint64) uint64 {
	var buf [20]byte // len(strconv.FormatUint(math.MaxUint64, 10))
	return hash64(strconv.AppendUint(buf[:0], key, 10))
}

// Shards returns the shard names, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// RF returns the effective replication factor: the configured replica
// count clamped to the number of shards.
func (r *Ring) RF() int {
	if r.cfg.Replicas > len(r.shards) {
		return len(r.shards)
	}
	return r.cfg.Replicas
}

// Lookup returns the RF distinct shards owning key, primary first.
func (r *Ring) Lookup(key string) []string { return r.LookupN(key, r.RF()) }

// LookupN returns up to n distinct shards for key in preference order:
// the walk that Lookup truncates at RF, extended for hedging — the
// (RF+1)-th entry is the shard a write spills to when a replica is down.
// n is clamped to the shard count.
func (r *Ring) LookupN(key string, n int) []string {
	var buf [8]int
	idx := r.walk(buf[:0], hash64(key), n)
	if len(idx) == 0 {
		return nil
	}
	owners := make([]string, len(idx))
	for i, si := range idx {
		owners[i] = r.shards[si]
	}
	return owners
}

// Owners is LookupN for an integer key, without allocating: it appends
// to dst the indexes into Shards() of up to n distinct shards, in the
// order LookupN(strconv.FormatUint(key, 10), n) names them.
func (r *Ring) Owners(dst []int, key uint64, n int) []int {
	return r.walk(dst, hashUint(key), n)
}

// walk appends to dst the indexes of the first n distinct shards
// clockwise from hash h (n clamped to the shard count).
func (r *Ring) walk(dst []int, h uint64, n int) []int {
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n <= 0 {
		return dst
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // shard-count is small; a bitmap beats a map here
	var seenOver []bool
	if len(r.shards) > 64 {
		seenOver = make([]bool, len(r.shards))
	}
	for i, found := 0, 0; found < n && i < len(r.points); i++ {
		si := r.points[(start+i)%len(r.points)].shard
		if seenOver != nil {
			if seenOver[si] {
				continue
			}
			seenOver[si] = true
		} else {
			if seen&(1<<uint(si)) != 0 {
				continue
			}
			seen |= 1 << uint(si)
		}
		found++
		dst = append(dst, int(si))
	}
	return dst
}

// Add returns a ring with shard name added. Adding an existing shard is
// an error.
func (r *Ring) Add(name string) (*Ring, error) {
	for _, s := range r.shards {
		if s == name {
			return nil, fmt.Errorf("ring: shard %q already present", name)
		}
	}
	return New(append(r.Shards(), name), r.cfg)
}

// Remove returns a ring with shard name removed. Removing the last
// shard or an unknown shard is an error.
func (r *Ring) Remove(name string) (*Ring, error) {
	rest := make([]string, 0, len(r.shards))
	for _, s := range r.shards {
		if s != name {
			rest = append(rest, s)
		}
	}
	if len(rest) == len(r.shards) {
		return nil, fmt.Errorf("ring: shard %q not in ring", name)
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("ring: cannot remove the last shard")
	}
	return New(rest, r.cfg)
}

// Ownership returns each shard's fraction of the hash circle it owns as
// primary — the arc-length view of balance that /ring reports.
func (r *Ring) Ownership() map[string]float64 {
	own := make(map[string]float64, len(r.shards))
	if len(r.points) == 0 {
		return own
	}
	for i := range r.points {
		p := r.points[i]
		// The arc [prev, p) belongs to p's shard (keys hash into the arc
		// and walk clockwise to p).
		var arc uint64
		if i == 0 {
			arc = r.points[0].hash + (^uint64(0) - r.points[len(r.points)-1].hash) + 1
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		own[r.shards[p.shard]] += float64(arc)
	}
	const circle = float64(1<<63) * 2
	for name := range own {
		own[name] /= circle
	}
	return own
}
