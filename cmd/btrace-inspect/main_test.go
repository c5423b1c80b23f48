package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

func writeDump(t *testing.T, es []tracer.Entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dump.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	for i := range es {
		n, err := tracer.EncodeEvent(buf, &es[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestInspect(t *testing.T) {
	es := []tracer.Entry{
		{Stamp: 1, TS: 0, Core: 0, TID: 10, Category: 11, Payload: []byte("a")},
		{Stamp: 2, TS: 1e9, Core: 1, TID: 11, Category: 11, Payload: []byte("b")},
		{Stamp: 5, TS: 2e9, Core: 1, TID: 12, Category: 16, Payload: []byte("c")},
	}
	path := writeDump(t, es)
	for _, format := range []string{"summary", "text", "chrome", "csv"} {
		if err := run(path, 10, format); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
	}
	if err := run(path, 10, "bogus"); err == nil {
		t.Fatal("unknown format: expected error")
	}
}

// TestInspectStoreDir: a directory argument is opened as a durable
// segment store and inspected through its query cursor.
func TestInspectStoreDir(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		e := tracer.Entry{Stamp: i, TS: i * 1e6, Core: uint8(i % 2), Category: 11}
		if err := st.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"summary", "text"} {
		if err := run(dir, 10, format); err != nil {
			t.Fatalf("store dir, format %s: %v", format, err)
		}
	}
	if err := run(t.TempDir(), 10, "summary"); err == nil {
		t.Error("empty store dir: expected error")
	}
}

// TestInspectTiers: -tiers renders the blocklist and tier tables for a
// single store directory, and rejects plain files.
func TestInspectTiers(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		e := tracer.Entry{Stamp: i, TS: i * 1e6, Category: 11}
		if err := st.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runTiers(dir); err != nil {
		t.Fatalf("single store -tiers: %v", err)
	}
	dump := writeDump(t, []tracer.Entry{{Stamp: 1, Category: 11}})
	if err := runTiers(dump); err == nil {
		t.Error("-tiers on a file: expected error")
	}
}

// TestInspectTiersClusterRoot: a directory of shard-* stores (the layout
// btrace-serve -shards writes) is rendered per shard plus fleet totals.
func TestInspectTiersClusterRoot(t *testing.T) {
	root := t.TempDir()
	for i, n := range []uint64{5, 3} {
		dir := filepath.Join(root, []string{"shard-00", "shard-01"}[i])
		st, err := store.Open(dir, store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(1); s <= n; s++ {
			e := tracer.Entry{Stamp: s, TS: s * 1e6, Category: 11}
			if err := st.Append(&e); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := clusterShards(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0] != "shard-00" || shards[1] != "shard-01" {
		t.Fatalf("clusterShards = %v, want [shard-00 shard-01]", shards)
	}
	if err := runTiers(root); err != nil {
		t.Fatalf("cluster root -tiers: %v", err)
	}
	// A broken shard store surfaces as an error naming the shard.
	if err := os.WriteFile(filepath.Join(root, "shard-02"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// shard-02 is a file, not a directory: it is not picked up as a shard.
	shards, err = clusterShards(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("file entry counted as shard: %v", shards)
	}
}

// coldStoreDir builds a store directory with a frozen (columnar) cold
// tier: n events in one aged segment compacted cold, one fresh row
// segment on top.
func coldStoreDir(t *testing.T, n uint64) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{ColdAfterNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		e := tracer.Entry{
			Stamp: i, TS: i * 1e6, Core: uint8(i % 4), TID: 100 + uint32(i%3),
			Category: uint8(1 + i%3), Level: 1,
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		}
		if err := st.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	// A much newer event ages the sealed segment past ColdAfterNs.
	e := tracer.Entry{Stamp: n + 800, TS: 10e9, Category: 1, Level: 1}
	if err := st.Append(&e); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if n, err := st.CompactCold(); err != nil || n == 0 {
		t.Fatalf("CompactCold froze %d segments: %v", n, err)
	}
	infos := st.ColdBlocks()
	if len(infos) == 0 || infos[0].Version != 3 {
		t.Fatalf("expected v3 cold blocks, got %+v", infos)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestInspectBlocks: -blocks renders the cold tier's per-block columnar
// metadata and rejects plain readout files.
func TestInspectBlocks(t *testing.T) {
	dir := coldStoreDir(t, 200)
	if err := runBlocks(dir); err != nil {
		t.Fatalf("-blocks: %v", err)
	}
	// A store with nothing frozen is fine, just empty.
	if err := runBlocks(t.TempDir()); err != nil {
		t.Fatalf("-blocks on empty store: %v", err)
	}
	dump := writeDump(t, []tracer.Entry{{Stamp: 1, Category: 11}})
	if err := runBlocks(dump); err == nil {
		t.Error("-blocks on a file: expected error")
	}
}

// TestInspectQuery: -query runs BTQL filters and aggregates against a
// store directory with a cold columnar tier.
func TestInspectQuery(t *testing.T) {
	dir := coldStoreDir(t, 200)
	for _, src := range []string{
		`category == 2`,
		`tid == 101 && stamp <= 50`,
		`payload contains "payload-7"`,
		`stamp >= 10 | count()`,
		`time >= 0 | topk(2, core)`,
	} {
		if err := runQuery(io.Discard, dir, src, "summary"); err != nil {
			t.Fatalf("-query %q: %v", src, err)
		}
	}
	for _, format := range []string{"text", "csv", "chrome"} {
		if err := runQuery(io.Discard, dir, `core == 1`, format); err != nil {
			t.Fatalf("-query format %s: %v", format, err)
		}
	}
	if err := runQuery(io.Discard, dir, `core ==`, "summary"); err == nil {
		t.Error("malformed query: expected error")
	}
	if err := runQuery(io.Discard, dir, `core == 1`, "xml"); err == nil {
		t.Error("unknown format: expected error")
	}
}

// TestInspectQueryStreams: a filter's matches stream out batch by batch
// in every format, and what streams out is what draining every match
// and exporting the slice wrote, byte for byte. The match set spans
// three batches.
func TestInspectQueryStreams(t *testing.T) {
	const src = `core != 3`
	dir := coldStoreDir(t, 3000)
	drained := func(lengthsOnly bool) []tracer.Entry {
		t.Helper()
		st, err := store.Open(dir, store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		bq, err := btql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cur := st.Query(store.Query{Pred: bq.Predicate(), LengthsOnly: lengthsOnly})
		defer cur.Close()
		es, err := tracer.Drain(cur, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}
	es := drained(false)
	if len(es) <= 2*1024 {
		t.Fatalf("fixture: %d matches, want more than two batches", len(es))
	}
	run := func(format string) string {
		t.Helper()
		var out bytes.Buffer
		if err := runQuery(&out, dir, src, format); err != nil {
			t.Fatalf("-format %s: %v", format, err)
		}
		return out.String()
	}

	want := fmt.Sprintf("%d events match %q (%.3fs span)\n", len(es), src, float64(es[len(es)-1].TS-es[0].TS)/1e9)
	if got := run("summary"); got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	var text, csv, chrome bytes.Buffer
	if err := export.Text(&text, es); err != nil {
		t.Fatal(err)
	}
	lengths := drained(true)
	if err := export.CSV(&csv, lengths); err != nil {
		t.Fatal(err)
	}
	if err := export.ChromeTrace(&chrome, lengths); err != nil {
		t.Fatal(err)
	}
	if got := run("text"); got != text.String() {
		t.Errorf("text: %d bytes differ from the drained export's %d", len(got), text.Len())
	}
	if got := run("csv"); got != csv.String() {
		t.Errorf("csv: %d bytes differ from the drained export's %d", len(got), csv.Len())
	}
	if got := run("chrome"); got != chrome.String() {
		t.Errorf("chrome: %d bytes differ from the drained export's %d", len(got), chrome.Len())
	}
}

func TestInspectErrors(t *testing.T) {
	if err := run("/no/such/file", 10, "summary"); err == nil {
		t.Error("missing file: expected error")
	}
	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, 10, "summary"); err == nil {
		t.Error("empty file: expected error")
	}
}
