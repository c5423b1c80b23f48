package distributor

import (
	"sort"
	"testing"

	"btrace/internal/store"
	"btrace/internal/tracer"
)

// The cluster read surface must not depend on how hard each shard
// scans: whatever ?workers= asks for, the merged, deduplicated stream
// has to be the same — btrace-vulture cross-checks that continuously —
// and it has to be what the shards' sequential store cursors hold, the
// reference the parallel scan is checked against.
func TestDistributorQueryParallelMatchesSequential(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	res := d.Ingest("", events(500, 1, 30, 31, 32, 33, 34))
	if res.Acked != 500 {
		t.Fatalf("acked %d of 500", res.Acked)
	}

	q := store.Query{MinStamp: 50, MaxStamp: 450}
	var seq []tracer.Entry
	seen := make(map[uint64]bool)
	for _, sh := range locals {
		for _, e := range drainAll(t, sh.st.Query(q)) {
			if !seen[e.Stamp] {
				seen[e.Stamp] = true
				seq = append(seq, e)
			}
		}
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].Stamp < seq[j].Stamp })
	if len(seq) != 401 {
		t.Fatalf("sequential cursors hold %d distinct events, want 401", len(seq))
	}

	for _, workers := range []int{0, 1, 4} {
		cur, err := d.Query(q, workers)
		if err != nil {
			t.Fatal(err)
		}
		par := drainAll(t, cur)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d events, sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].Stamp != par[i].Stamp {
				t.Fatalf("workers=%d: divergence at %d: sequential stamp %d, merged %d",
					workers, i, seq[i].Stamp, par[i].Stamp)
			}
			if string(seq[i].Payload) != string(par[i].Payload) {
				t.Fatalf("workers=%d: stamp %d payload differs between surfaces", workers, seq[i].Stamp)
			}
		}
	}

	// A killed shard degrades nothing: RF=2 keeps every stamp readable.
	locals[2].Kill()
	cur, err := d.Query(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainAll(t, cur); len(got) != 401 {
		t.Fatalf("query after kill returned %d events, want 401", len(got))
	}
}

// TestLocalShardQueryStampOrdered: cross-replica delivery interleaves
// owner groups, so a shard's append order is NOT stamp order. The
// ordering the merge relies on is produced by the shard's cursor: over a
// store fed by two interleaving writers, Query yields one sorted run.
func TestLocalShardQueryStampOrdered(t *testing.T) {
	sh := newTestShard(t, "shard-00")
	defer sh.Close()
	a, b := events(300, 1, 7), events(300, 2, 8)
	for i := range a { // a holds the odd stamps, b the even ones
		a[i].Stamp, b[i].Stamp = uint64(2*i+1), uint64(2*i+2)
	}
	for i := 0; i < 300; i += 50 {
		// Each writer's batch is sorted; b's lands first, so every pair of
		// batches is out of order in the segment.
		for _, es := range [][]tracer.Entry{b[i : i+50], a[i : i+50]} {
			if err := sh.Ingest(es); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, workers := range []int{0, 4} {
		cur, err := sh.Query(store.Query{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, cur)
		if len(got) != 600 {
			t.Fatalf("workers=%d: %d events, want 600", workers, len(got))
		}
		for i, e := range got {
			if e.Stamp != uint64(i+1) {
				t.Fatalf("workers=%d: entry %d has stamp %d: the run is not stamp-ordered", workers, i, e.Stamp)
			}
		}
		// A limit keeps the smallest stamps, not the first rows appended.
		if cur, err = sh.Query(store.Query{Limit: 5}, workers); err != nil {
			t.Fatal(err)
		}
		if got = drainAll(t, cur); len(got) != 5 || got[0].Stamp != 1 || got[4].Stamp != 5 {
			t.Fatalf("workers=%d limit=5: got %d events from stamp %d", workers, len(got), got[0].Stamp)
		}
	}
}
