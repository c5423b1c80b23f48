package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"btrace/internal/obs"
	"btrace/internal/store/backend"
)

// storeSeries is each unlabelled btrace_store_* counter that Stats
// reports, and its field.
var storeSeries = map[string]func(Stats) uint64{
	"btrace_store_appends_total":                 func(s Stats) uint64 { return s.Appends },
	"btrace_store_appended_bytes_total":          func(s Stats) uint64 { return s.BytesAppended },
	"btrace_store_seals_total":                   func(s Stats) uint64 { return s.Seals },
	"btrace_store_segments_deleted_total":        func(s Stats) uint64 { return s.SegmentsDeleted },
	"btrace_store_events_retired_total":          func(s Stats) uint64 { return s.EventsRetired },
	"btrace_store_cold_compactions_total":        func(s Stats) uint64 { return s.ColdCompactions },
	"btrace_store_segments_frozen_total":         func(s Stats) uint64 { return s.SegmentsFrozen },
	"btrace_store_cold_blocks_total":             func(s Stats) uint64 { return s.ColdBlocksBuilt },
	"btrace_store_cold_bytes_written_total":      func(s Stats) uint64 { return s.ColdBytesWritten },
	"btrace_store_cold_raw_bytes_total":          func(s Stats) uint64 { return s.ColdRawBytes },
	"btrace_store_compactor_errors_total":        func(s Stats) uint64 { return s.CompactorErrors },
	"btrace_store_orphans_removed_total":         func(s Stats) uint64 { return s.OrphansRemoved },
	"btrace_store_block_cache_hits_total":        func(s Stats) uint64 { return s.BlockCacheHits },
	"btrace_store_block_cache_misses_total":      func(s Stats) uint64 { return s.BlockCacheMisses },
	"btrace_store_blocks_pruned_total":           func(s Stats) uint64 { return s.BlocksPruned },
	"btrace_store_payload_skips_total":           func(s Stats) uint64 { return s.PayloadSkips },
	"btrace_store_payload_chunks_inflated_total": func(s Stats) uint64 { return s.PayloadChunksInflated },
	"btrace_store_payload_chunks_skipped_total":  func(s Stats) uint64 { return s.PayloadChunksSkipped },
	"btrace_store_payload_inflated_bytes_total":  func(s Stats) uint64 { return s.PayloadInflatedBytes },
	"btrace_store_recovered_truncations_total":   func(s Stats) uint64 { return s.RecoveredTruncations },
	"btrace_store_torn_bytes_dropped_total":      func(s Stats) uint64 { return s.TornBytesDropped },
	"btrace_store_leftover_segments_total":       func(s Stats) uint64 { return s.LeftoverSegments },
	"btrace_store_headers_rebuilt_total":         func(s Stats) uint64 { return s.HeadersRebuilt },
}

// TestStoreSeriesReadStats: every count the store keeps lives once, and
// its btrace_store_* series reads that home — st.stats through the copy
// each mutating operation publishes, or the read path's own counters.
// One store is put through appends, seals, retention, a freeze and cold
// reads and closed; a second life reopens its directory, recovering a
// torn tail and removing an orphan. Each counter equals its Stats field
// while the store lives, after Close folds it, and summed with the
// second life's.
func TestStoreSeriesReadStats(t *testing.T) {
	reg := obs.NewRegistry()
	check := func(when string, lives ...*Store) {
		t.Helper()
		snap := reg.Snapshot()
		var freezeNs uint64
		for name, field := range storeSeries {
			var want uint64
			for _, st := range lives {
				want += field(st.Stats())
			}
			if got := snap.Value(name); got != float64(want) {
				t.Errorf("%s: %s reads %v, Stats says %d", when, name, got, want)
			}
		}
		for _, st := range lives {
			freezeNs += st.Stats().FreezeNs
		}
		if got, want := snap.Value("btrace_store_freeze_seconds_total"), float64(freezeNs)/1e9; got != want {
			t.Errorf("%s: freeze_seconds_total reads %v, Stats says %v s", when, got, want)
		}
		for _, s := range snap.Samples {
			if _, ok := storeSeries[s.Name]; !ok && s.Kind == obs.KindCounter && !strings.Contains(s.Name, "{") &&
				s.Name != "btrace_store_freeze_seconds_total" && s.Name != "btrace_store_group_commits_total" {
				t.Errorf("%s is not checked against Stats", s.Name)
			}
		}
	}

	dir := t.TempDir()
	cfg := tierCfg()
	cfg.MaxBytes = 48 << 10
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := reg.Register(st.obs.collect)
	sealEvery(t, st, 1, 1200, 100)
	if err := st.Sync(); err != nil { // retention runs behind the seals
		t.Fatal(err)
	}
	if n, err := st.CompactCold(); err != nil || n == 0 {
		t.Fatalf("CompactCold: froze %d, %v", n, err)
	}
	if got := drainStore(t, st, Query{}); len(got) == 0 {
		t.Fatal("the store holds nothing")
	}
	appendRange(t, st, 1201, 1300) // the active segment Close seals
	segs := st.Segments()
	last := filepath.Join(dir, segs[len(segs)-1].File)
	check("live", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg.Fold(id)
	check("folded", st)
	s := st.Stats()
	for name, v := range map[string]uint64{
		"appends": s.Appends, "seals": s.Seals, "deleted": s.SegmentsDeleted, "retired": s.EventsRetired,
		"frozen": s.SegmentsFrozen, "cold blocks": s.ColdBlocksBuilt, "freeze ns": s.FreezeNs, "cache misses": s.BlockCacheMisses,
	} {
		if v == 0 {
			t.Errorf("the first life left %s at 0: %+v", name, s)
		}
	}

	// The second life: the last segment loses its final bytes, and an
	// interrupted transition left a temp file.
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "col-99.blk.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reg.Register(re.obs.collect)
	if s := re.Stats(); s.RecoveredTruncations != 1 || s.TornBytesDropped == 0 || s.OrphansRemoved != 1 {
		t.Fatalf("reopen recovered %+v, want one torn tail and one orphan", s)
	}
	appendRange(t, re, 1301, 1310)
	check("reopened", st, re)
}

// TestStoreGaugesMatchRecount: the segment gauges are running totals —
// an append adds what it wrote, and only a new segment, a retirement, a
// freeze or an Open moves whole segments in or out — so whatever the
// store went through, each must equal a fresh count over its segment
// list, and so must Size and Events. A seeded program of appends across
// rotations, Seals, CompactTick freezes and retention runs over one
// store and again after a reopen, checked after every step.
func TestStoreGaugesMatchRecount(t *testing.T) {
	be := backend.NewObject()
	cfg := tierCfg()
	cfg.SegmentBytes = 4 << 10
	cfg.MaxBytes = 96 << 10
	st, err := OpenBackend(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		// A commit waits for every rotation's finalization, and with it
		// the retention behind it.
		if err := st.Sync(); err != nil {
			t.Fatalf("%s: Sync: %v", step, err)
		}
		size, events := st.Size(), st.Events()
		st.mu.Lock()
		defer st.mu.Unlock()
		var want [2]tierTally
		for _, s := range st.segs {
			w := &want[s.tier]
			w.segs++
			w.bytes += s.size
			w.events += s.meta.count
		}
		o := st.obs
		for tier, w := range want {
			if got := o.tierSegments[tier].Load(); got != w.segs {
				t.Errorf("%s: tier %d segments gauge %d, recount %d", step, tier, got, w.segs)
			}
			if got := o.tierBytes[tier].Load(); got != w.bytes {
				t.Errorf("%s: tier %d bytes gauge %d, recount %d", step, tier, got, w.bytes)
			}
		}
		all := tierTally{segs: want[0].segs + want[1].segs, bytes: want[0].bytes + want[1].bytes, events: want[0].events + want[1].events}
		if got := o.segments.Load(); got != all.segs {
			t.Errorf("%s: segments gauge %d, recount %d", step, got, all.segs)
		}
		if got := o.sizeBytes.Load(); got != all.bytes || size != all.bytes {
			t.Errorf("%s: size gauge %d, Size %d, recount %d", step, got, size, all.bytes)
		}
		if got := o.events.Load(); uint64(got) != all.events || events != all.events {
			t.Errorf("%s: events gauge %d, Events %d, recount %d", step, got, events, all.events)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	rng := rand.New(rand.NewSource(41))
	next := uint64(1)
	program := func(life string, steps int) {
		for i := 0; i < steps; i++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 6:
				n := 1 + uint64(rng.Intn(300))
				appendRange(t, st, next, next+n-1)
				next += n
				op = fmt.Sprintf("append %d", n)
			case r < 8:
				if err := st.Seal(); err != nil {
					t.Fatal(err)
				}
				op = "seal"
			default:
				if err := st.CompactTick(); err != nil {
					t.Fatal(err)
				}
				op = "freeze"
			}
			check(fmt.Sprintf("%s step %d (%s)", life, i, op))
		}
	}
	exercised := func(life string) {
		t.Helper()
		if s := st.Stats(); s.Seals == 0 || s.SegmentsDeleted == 0 || s.SegmentsFrozen == 0 {
			t.Fatalf("%s left a transition unexercised: %+v", life, s)
		}
	}
	program("first life", 150)
	exercised("first life")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenBackend(be, cfg); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check("reopened")
	program("second life", 50)
	exercised("second life")
}
