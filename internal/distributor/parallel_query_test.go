package distributor

import (
	"bytes"
	"sort"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// The cluster read surface, the merged and deduplicated stream, has to
// be what the shards' own store reads hold, deduplicated and sorted
// here: the reference without the merge.
func TestDistributorQueryParallelMatchesSequential(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	res := d.Ingest("", events(500, 1, 30, 31, 32, 33, 34))
	if res.Acked != 500 {
		t.Fatalf("acked %d of 500", res.Acked)
	}

	q := store.Query{Pred: where(btql.Between(btql.FStamp, 50, 450))}
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
		t.Fatalf("the shards' reads hold %d distinct events, want 401", len(seq))
	}

	cur, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	par := drainAll(t, cur)
	if len(par) != len(seq) {
		t.Fatalf("%d events, the shards' reads %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].Stamp != par[i].Stamp {
			t.Fatalf("divergence at %d: the shards' stamp %d, merged %d", i, seq[i].Stamp, par[i].Stamp)
		}
		if string(seq[i].Payload) != string(par[i].Payload) {
			t.Fatalf("stamp %d payload differs between surfaces", seq[i].Stamp)
		}
	}

	// A killed shard degrades nothing: RF=2 keeps every stamp readable.
	locals[2].Kill()
	cur, err = d.Query(q)
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
			if err := ingestAll(sh, es); err != nil {
				t.Fatal(err)
			}
		}
	}
	cur, err := sh.Query(store.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, cur)
	if len(got) != 600 {
		t.Fatalf("%d events, want 600", len(got))
	}
	for i, e := range got {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("entry %d has stamp %d: the run is not stamp-ordered", i, e.Stamp)
		}
	}
	// A limit keeps the smallest stamps, not the first rows appended.
	if cur, err = sh.Query(store.Query{Limit: 5}); err != nil {
		t.Fatal(err)
	}
	if got = drainAll(t, cur); len(got) != 5 || got[0].Stamp != 1 || got[4].Stamp != 5 {
		t.Fatalf("limit=5: got %d events from stamp %d", len(got), got[0].Stamp)
	}
}

// TestLengthOnlyMatchesFull is the cluster leg of the store's test of
// that name: Distributor.Query hands the projection to every shard, and
// over a 4×RF2 cluster fed by two interleaving writers (so the shards'
// segments are unordered) the CSV and Chrome bodies of a
// Query.LengthsOnly read are byte for byte those of a full-payload
// read, with and without a payload predicate.
func TestLengthOnlyMatchesFull(t *testing.T) {
	d, locals := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	for s := uint64(1); s <= 4000; s += 400 {
		// The second writer's batch lands first.
		for _, start := range []uint64{s + 200, s} {
			if res := d.Ingest("", events(200, start, 30, 31, 32, 33, 34, 35, 36)); res.Acked != 200 {
				t.Fatalf("acked %d of 200", res.Acked)
			}
		}
	}
	for _, sh := range locals {
		if segs := sh.Segments(); len(segs) == 0 || segs[0].Ordered {
			t.Fatalf("fixture: %s holds no unordered segment: %+v", sh.Name(), segs)
		}
	}
	needle, err := btql.Parse(`payload contains "e7"`)
	if err != nil {
		t.Fatal(err)
	}
	bodies := func(q store.Query) (csv, chrome bytes.Buffer) {
		for i, w := range []*bytes.Buffer{&csv, &chrome} {
			cur, err := d.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				_, _, err = export.CSVCursor(w, cur, make([]tracer.Entry, 300))
			} else {
				_, _, err = export.ChromeTraceCursor(w, cur, make([]tracer.Entry, 300))
			}
			cur.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		return csv, chrome
	}
	for name, q := range map[string]store.Query{
		"all":     {},
		"window":  {Pred: where(btql.Between(btql.FStamp, 777, 3210)), Limit: 1500},
		"payload": {Pred: needle.Predicate()},
	} {
		wantCSV, wantChrome := bodies(q)
		if rows := bytes.Count(wantCSV.Bytes(), []byte("\n")) - 1; rows < 100 {
			t.Fatalf("%s: the full read matched %d rows", name, rows)
		}
		q.LengthsOnly = true
		gotCSV, gotChrome := bodies(q)
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Errorf("%s: CSV under the projection differs (%d vs %d bytes)", name, gotCSV.Len(), wantCSV.Len())
		}
		if !bytes.Equal(gotChrome.Bytes(), wantChrome.Bytes()) {
			t.Errorf("%s: Chrome under the projection differs (%d vs %d bytes)", name, gotChrome.Len(), wantChrome.Len())
		}
	}
	// The projection reached the shards: no merged entry carries a byte.
	cur, err := d.Query(store.Query{LengthsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	batch := make([]tracer.Entry, 512)
	zero := &tracer.LengthOnly(1)[0]
	for total := 0; ; {
		n, _, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if total != 4000 {
				t.Fatalf("length-only read delivered %d of 4000 events", total)
			}
			break
		}
		total += n
		for _, e := range batch[:n] {
			if len(e.Payload) == 0 || &e.Payload[0] != zero {
				t.Fatalf("stamp %d carries payload bytes %q", e.Stamp, e.Payload)
			}
		}
	}
}
