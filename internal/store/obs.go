package store

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"btrace/internal/obs"
)

// storeObs is what the /metrics collector reads of a store. The counts
// kept under st.mu live once, in st.stats: each public mutating
// operation copies them into stats here on its way out, under a lock of
// storeObs's own, so a scrape never needs st.mu and a collection pass
// can never deadlock against Close. The counts the read path and
// appenders bump concurrently live here, as obs primitives, and Stats()
// reads those it reports; the gauges are refreshed with the copy.
//
// storeObs is allocated separately from the Store and is what the
// registry's collector closure captures, keeping the Store finalizable.
type storeObs struct {
	// mu guards stats, the copy of st.stats last published.
	mu    sync.Mutex
	stats Stats

	// bcache is read live at collect time: its counters advance on the
	// read path, which never runs publishObsLocked. Referencing the
	// cache (its own allocation, no back-pointer) keeps the Store
	// finalizable; Fold's final collect captures the closing values.
	bcache *blockCache

	// reads counts read passes by what they asked of the payload: a
	// cursor its bytes or (Query.LengthsOnly) their lengths, an aggregate
	// nothing. Beside inflatedBytes it says which kind of reader is the
	// one paying for inflates.
	reads [len(readNames)]*obs.Counter

	// blocksPruned/payloadSkips advance on the read path too (cursors
	// and query workers increment them directly, like bcache's hits):
	// cold blocks rejected on header metadata alone, and columnar blocks
	// whose rows were scanned without inflating a payload byte. The
	// chunk rung below them: payload chunks (and the raw bytes in them)
	// a scan had to inflate, and chunks of scanned blocks it left alone
	// because no row it wanted a payload byte of lives there. A chunk
	// served from the block cache is in neither.
	blocksPruned   *obs.Counter
	payloadSkips   *obs.Counter
	chunksInflated *obs.Counter
	chunksSkipped  *obs.Counter
	inflatedBytes  *obs.Counter

	// groupCommits counts commits: each is one fsync of the active file
	// covering every batch written since the previous commit.
	groupCommits *obs.Counter

	// appendNs and fsyncNs are the store's two latencies of record: how
	// long an append spends encoding and writing its batch (waits for
	// the seal backlog and the store lock included), and how long each
	// fsync stalls.
	appendNs *obs.Histogram
	fsyncNs  *obs.Histogram
	// batchEvents is the AppendEntries batch-size distribution.
	batchEvents *obs.Histogram

	segments  obs.Gauge
	sizeBytes obs.Gauge
	events    obs.Gauge
	// Per-tier breakdowns of segments/sizeBytes, indexed by Tier.
	tierSegments [2]obs.Gauge
	tierBytes    [2]obs.Gauge
}

// The payload label of btrace_store_reads_total, indexing storeObs.reads.
const (
	readBytes = iota
	readLengths
	readNone
)

var readNames = [...]string{readBytes: "bytes", readLengths: "lengths", readNone: "none"}

func newStoreObs() *storeObs {
	return &storeObs{
		reads:          [len(readNames)]*obs.Counter{obs.NewCounter(1), obs.NewCounter(1), obs.NewCounter(1)},
		groupCommits:   obs.NewCounter(1),
		blocksPruned:   obs.NewCounter(1),
		payloadSkips:   obs.NewCounter(1),
		chunksInflated: obs.NewCounter(1),
		chunksSkipped:  obs.NewCounter(1),
		inflatedBytes:  obs.NewCounter(1),
		appendNs:       obs.NewHistogram(obs.LatencyBounds),
		fsyncNs:        obs.NewHistogram(obs.LatencyBounds),
		batchEvents:    obs.NewHistogram(obs.SizeBounds),
	}
}

// collect emits the store's series. It runs under the registry lock and
// must not reference the Store (see type comment).
func (o *storeObs) collect(e *obs.Emitter) {
	o.mu.Lock()
	s := o.stats
	o.mu.Unlock()
	e.Counter("btrace_store_appends_total", "events appended", s.Appends)
	e.Counter("btrace_store_appended_bytes_total", "frame bytes appended", s.BytesAppended)
	e.Counter("btrace_store_seals_total", "segments sealed", s.Seals)
	e.Counter("btrace_store_segments_deleted_total", "segments removed by retention", s.SegmentsDeleted)
	e.Counter("btrace_store_events_retired_total", "events removed by retention", s.EventsRetired)
	e.Counter("btrace_store_cold_compactions_total", "freeze passes that built cold files", s.ColdCompactions)
	e.Counter("btrace_store_segments_frozen_total", "row segments consumed by freezing", s.SegmentsFrozen)
	e.Counter("btrace_store_cold_blocks_total", "compressed cold blocks built", s.ColdBlocksBuilt)
	e.Counter("btrace_store_cold_bytes_written_total", "compressed bytes written to cold files", s.ColdBytesWritten)
	e.Counter("btrace_store_cold_raw_bytes_total", "uncompressed bytes frozen into cold files", s.ColdRawBytes)
	e.CounterSeconds("btrace_store_freeze_seconds_total", "wall time spent building committed cold files (per frozen MB: over cold_raw_bytes_total)", s.FreezeNs)
	e.Counter("btrace_store_compactor_errors_total", "background compactor tick failures", s.CompactorErrors)
	e.Counter("btrace_store_orphans_removed_total", "unrecognized files removed at open", s.OrphansRemoved)
	cc := o.bcache.classCounters()
	hits, misses := cc.sections()
	e.Counter("btrace_store_block_cache_hits_total", "cold section reads served from the block cache", hits)
	e.Counter("btrace_store_block_cache_misses_total", "cold section reads that had to inflate", misses)
	// The same by what was looked up. A column miss is a decode from a
	// cached meta section, not an inflate, a partial miss the fold of one
	// sealed segment for one aggregate, a headers miss the build of one
	// sealed segment's set and a text miss the rendering of one set, so
	// the unlabelled pair above is the meta and payload rows only.
	for class, name := range classNames {
		label := fmt.Sprintf("{section=%q}", name)
		e.Counter("btrace_store_block_cache_hits_total"+label, "block cache lookups served, by section", cc.hits[class])
		e.Counter("btrace_store_block_cache_misses_total"+label, "block cache lookups that had to inflate (meta, payload), decode (column), fold a sealed segment (partial), build its header or filtered set (headers) or render a set (text), by section", cc.misses[class])
		e.Gauge("btrace_store_block_cache_bytes"+label, "bytes resident in the block cache, by section", float64(cc.resident[class]))
	}
	for class, name := range readNames {
		e.Counter(fmt.Sprintf("btrace_store_reads_total{payload=%q}", name), "read passes by what they asked of the payload: a cursor its bytes or only their lengths, an aggregate none", o.reads[class].Load())
	}
	e.Counter("btrace_store_blocks_pruned_total", "cold blocks skipped on header metadata alone", o.blocksPruned.Load())
	e.Counter("btrace_store_payload_skips_total", "columnar blocks scanned without inflating the payload column", o.payloadSkips.Load())
	e.Counter("btrace_store_payload_chunks_inflated_total", "payload chunks of columnar blocks inflated (block cache misses)", o.chunksInflated.Load())
	e.Counter("btrace_store_payload_chunks_skipped_total", "payload chunks of scanned columnar blocks left compressed: no selected row needed a byte of them", o.chunksSkipped.Load())
	e.Counter("btrace_store_payload_inflated_bytes_total", "raw payload bytes produced by inflating chunks", o.inflatedBytes.Load())
	e.Counter("btrace_store_recovered_truncations_total", "torn segment tails truncated at open", s.RecoveredTruncations)
	e.Counter("btrace_store_torn_bytes_dropped_total", "bytes cut by recovery truncations", s.TornBytesDropped)
	e.Counter("btrace_store_leftover_segments_total", "interrupted tier-transition leftovers deleted at open", s.LeftoverSegments)
	e.Counter("btrace_store_headers_rebuilt_total", "corrupt headers rebuilt at open", s.HeadersRebuilt)
	e.Counter("btrace_store_group_commits_total", "write-pipeline group-commit fsync windows", o.groupCommits.Load())
	e.Histogram("btrace_store_append_ns", "append batch encode+write latency", o.appendNs.Snapshot())
	e.Histogram("btrace_store_fsync_ns", "fsync latency", o.fsyncNs.Snapshot())
	e.Histogram("btrace_store_batch_events", "events per append batch", o.batchEvents.Snapshot())
	e.Gauge("btrace_store_segments", "live segments", float64(o.segments.Load()))
	e.Gauge("btrace_store_size_bytes", "total on-disk size", float64(o.sizeBytes.Load()))
	e.Gauge("btrace_store_events", "events currently held", float64(o.events.Load()))
	e.Gauge("btrace_store_tier_hot_segments", "segments in the hot tier", float64(o.tierSegments[TierHot].Load()))
	e.Gauge("btrace_store_tier_hot_bytes", "bytes in the hot tier", float64(o.tierBytes[TierHot].Load()))
	e.Gauge("btrace_store_tier_cold_segments", "cold block files", float64(o.tierSegments[TierCold].Load()))
	e.Gauge("btrace_store_tier_cold_bytes", "compressed bytes in the cold tier", float64(o.tierBytes[TierCold].Load()))
	e.Gauge("btrace_store_stores", "open stores", 1)
}

// tierTally is one tier's running totals: what the segment list holds,
// kept under st.mu so that neither the gauges nor Size and Events walk
// the list. An append adds what it wrote; a new segment, a retirement
// and a freeze move whole segments in and out; Open counts what it
// recovered.
type tierTally struct {
	segs   int64
	bytes  int64
	events uint64
}

// addSegLocked moves s's size and events into (sign 1) or out of (-1)
// its tier's tally.
func (st *Store) addSegLocked(s *segment, sign int64) {
	t := &st.tiers[s.tier]
	t.segs += sign
	t.bytes += sign * s.size
	t.events += uint64(sign) * s.meta.count
}

// publishObsLocked copies st.stats to the collector and the tier tallies
// to the gauges. Called with st.mu held, once per public mutating
// operation — never per event, and in O(1).
func (st *Store) publishObsLocked() {
	o := st.obs
	o.mu.Lock()
	o.stats = st.stats
	o.mu.Unlock()

	var segs, size int64
	var events uint64
	for tier, t := range st.tiers {
		segs += t.segs
		size += t.bytes
		events += t.events
		o.tierSegments[tier].Set(t.segs)
		o.tierBytes[tier].Set(t.bytes)
	}
	o.segments.Set(segs)
	o.sizeBytes.Set(size)
	o.events.Set(int64(events))
}

// syncActive fsyncs the active segment, timing the stall.
func (st *Store) syncActive() error {
	start := time.Now()
	err := st.active.Sync()
	st.noteFsync(uint64(time.Since(start)))
	return err
}

// registerObs wires the store's counters into the process-wide registry.
// Close folds them into the retired totals; the finalizer is the backstop
// for stores that are dropped without Close (Fold on an already-folded id
// is a no-op). The collector closure captures only the counters, never
// st, so registration does not defeat the finalizer.
func (st *Store) registerObs() {
	reg := obs.Default()
	st.obsID = reg.Register(st.obs.collect)
	runtime.SetFinalizer(st, func(s *Store) { reg.Fold(s.obsID) })
}
