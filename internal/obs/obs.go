package obs

import (
	"sync/atomic"
)

// pad64 is one atomic word padded to a full cache line, so adjacent
// counters (or adjacent shards of one counter) never share a line.
type pad64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// Counter is a monotonically increasing counter, sharded across padded
// cache lines. Hot paths that know a stable shard hint (BTrace producers
// know their core id) use AddAt/IncAt and never contend; slow paths use
// Add/Inc, which land on shard 0. The zero value is not usable; construct
// with NewCounter.
type Counter struct {
	shards []pad64
	mask   uint32
}

// NewCounter returns a counter with at least the given number of shards
// (rounded up to a power of two, minimum 1).
func NewCounter(shards int) *Counter {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Counter{shards: make([]pad64, n), mask: uint32(n - 1)}
}

// Inc adds 1 on shard 0 (slow-path form).
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// Add adds delta on shard 0 (slow-path form).
func (c *Counter) Add(delta uint64) { c.shards[0].v.Add(delta) }

// IncAt adds 1 on the shard selected by hint (hot-path form; hint is
// reduced modulo the shard count).
func (c *Counter) IncAt(hint int) { c.shards[uint32(hint)&c.mask].v.Add(1) }

// AddAt adds delta on the shard selected by hint.
func (c *Counter) AddAt(hint int, delta uint64) { c.shards[uint32(hint)&c.mask].v.Add(delta) }

// Load returns the counter's current value: the sum over all shards. It
// is exact at quiescence and never under-counts a completed Add.
func (c *Counter) Load() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Reset zeroes every shard. Not atomic with respect to concurrent Adds;
// intended for Buffer.Reset-style quiescent reuse.
func (c *Counter) Reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// Gauge is an instantaneous value (capacity, queue depth, 0/1 health
// bits). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of uint64 samples (latencies in
// nanoseconds, sizes in bytes or events). Observe is lock-free: one
// binary search over the immutable bounds plus two atomic adds, no
// allocation. Bucket counts are padded so concurrent observers of nearby
// values do not share cache lines.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// counts has len(bounds)+1 entries; the last is the overflow (+Inf)
	// bucket.
	bounds []uint64
	counts []pad64
	sum    atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending inclusive
// upper bounds. The bounds slice is not copied and must not be mutated.
// It panics on empty or unsorted bounds — histogram layout is a
// programming decision, not runtime input.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]pad64, len(bounds)+1)}
}

// Observe records one sample. Lock-free and allocation-free.
func (h *Histogram) Observe(v uint64) {
	// Binary search for the first bound >= v; misses land in overflow.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].v.Add(1)
	h.sum.Add(v)
}

// HistSnap is a point-in-time view of a histogram. Count is derived from
// the bucket counts, so Count == the sum of Counts holds by construction
// in every snapshot, even one taken mid-Observe; Sum may trail or lead
// the buckets by in-flight observations and is exact at quiescence.
type HistSnap struct {
	// Bounds are the inclusive upper bounds; Counts has one extra final
	// entry for the overflow (+Inf) bucket.
	Bounds []uint64
	Counts []uint64
	Sum    uint64
	Count  uint64
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistSnap {
	s := HistSnap{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].v.Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// LatencyBounds is the shared latency bucket layout (nanoseconds): a
// 1-2.5-5 decade ladder from 1 µs to 10 s. Fixed buckets keep Observe
// search-cheap and make every latency histogram mergeable.
var LatencyBounds = []uint64{
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 1_000_000_000, 10_000_000_000,
}

// SizeBounds is the shared size bucket layout (bytes or events):
// powers of two from 1 to 64 Ki.
var SizeBounds = []uint64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
}
