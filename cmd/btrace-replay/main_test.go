package main

import (
	"os"
	"path/filepath"
	"testing"

	"btrace/internal/store"
	"btrace/internal/tracer"
)

func TestRunReplay(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "readout.bin")
	if err := run("btrace", "IM", 2<<20, 0.01, 3, true, 0.005, dump, ""); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(dump)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty dump")
	}
	// The dump must decode back to events.
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated := tracer.DecodeAll(data)
	if truncated || len(recs) == 0 {
		t.Fatalf("dump decode: %d records, truncated=%v", len(recs), truncated)
	}
}

func TestRunReplayCoreLevelNoDump(t *testing.T) {
	if err := run("ftrace", "LockScr.", 1<<20, 0.01, 2, false, 0, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplayPersistsToStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace-store")
	if err := run("btrace", "IM", 2<<20, 0.01, 3, true, 0.005, "", dir); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Events() == 0 {
		t.Fatal("store holds no events after -store replay")
	}
	cur := st.Query(store.Query{})
	defer cur.Close()
	es, err := tracer.Drain(cur, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(es)) != st.Events() {
		t.Fatalf("drained %d events, store reports %d", len(es), st.Events())
	}
}

func TestRunReplayErrors(t *testing.T) {
	if err := run("btrace", "nope", 1<<20, 0.01, 3, true, 0, "", ""); err == nil {
		t.Error("unknown workload: expected error")
	}
	if err := run("nope", "IM", 1<<20, 0.01, 3, true, 0, "", ""); err == nil {
		t.Error("unknown tracer: expected error")
	}
	if err := run("btrace", "IM", 1<<20, 0.01, 3, true, 0, "/no/such/dir/x.bin", ""); err == nil {
		t.Error("bad dump path: expected error")
	}
}
