package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"btrace/internal/obs"
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
