package main

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"btrace"
	"btrace/internal/btql"
	"btrace/internal/collect"
	"btrace/internal/live"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// parseProm parses a Prometheus text body into samples keyed by "name"
// or `name{labels}`, failing the test on malformed lines.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		series[line[:sp]] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

func scrape(t *testing.T, srv *server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	return parseProm(t, rec.Body.String())
}

// TestMetricsEndToEnd drives real traffic through all three instrumented
// subsystems — a tracer's block lifecycle, a supervised collector, and a
// durable store — then scrapes /metrics and checks that every subsystem's
// series are present and that the counters moved with the traffic; the
// Go runtime's own GC and allocation series and the ingest queue gauge
// ride along, and so do the two costs beside the write path: what a
// /live stream wrote in how many socket writes, and how long the
// freezer took over the bytes it froze — and, from a cluster beside the
// server, which path answers its aggregates.
func TestMetricsEndToEnd(t *testing.T) {
	hub := live.NewHub(live.Config{})
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1, Hub: hub})
	srv.attachLive(hub)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	before := scrape(t, srv)

	// Live: one subscriber, one posted batch, read to its last frame —
	// the handler counts a write before making it, so the counters cover
	// every byte the client has seen.
	stream := openLive(t, hub, ts.URL+"/live", "")
	posted := []tracer.Entry{{Stamp: 1, TS: 1, TID: 1, Level: 1}, {Stamp: 2, TS: 2, TID: 1, Level: 1, Payload: []byte("tail")}}
	post, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(encodeEvents(t, posted)))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	readLiveStamps(t, stream, len(posted))
	var frames int
	for i := range posted {
		frames += len(live.AppendFrame(nil, &posted[i]))
	}

	// Core + collect: record events and pump them through a supervisor.
	tr, err := btrace.Open(btrace.Config{Cores: 2, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Writer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 500
	for i := 0; i < writes; i++ {
		if err := w.Write(btrace.Event{TS: uint64(i), Category: 1, Level: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r := tr.NewReader()
	defer r.Close()
	sup, err := collect.NewSupervisor(collect.SupervisorConfig{Cursor: readerCursor{r}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sup.Step()
	}
	// The supervisor's obs collector retires via finalizer; keep the
	// supervisor reachable past the scrape or a GC between here and
	// there folds its gauge series away.
	defer runtime.KeepAlive(sup)

	// Store: append, seal, freeze, close.
	st, err := store.Open(t.TempDir(), store.Config{ColdAfterNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]tracer.Entry{{Stamp: 1, TS: 1}, {Stamp: 2, TS: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]tracer.Entry{{Stamp: 3, TS: 1 << 30}}); err != nil {
		t.Fatal(err)
	}
	if n, err := st.CompactCold(); err != nil || n != 1 {
		t.Fatalf("CompactCold froze %d segments (%v), want the sealed one", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Distributor: a two-shard cluster answers one aggregate.
	cp, err := newClusterPipeline(clusterConfig{Dir: t.TempDir(), Shards: 2, Replication: 2, Gate: overload.Config{MinSampleRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, _, err := cp.d.Aggregate(store.Query{}, []btql.AggSpec{{Kind: btql.AggCount}}); err != nil {
		t.Fatal(err)
	}

	after := scrape(t, srv)

	// Every subsystem must expose its series.
	for _, name := range []string{
		"btrace_core_writes_total",
		"btrace_core_written_bytes_total",
		"btrace_core_capacity_bytes",
		"btrace_collect_polls_total",
		"btrace_collect_pending_dumps",
		"btrace_store_appends_total",
		`btrace_store_append_ns_bucket{le="+Inf"}`,
		"btrace_store_fsync_ns_count",
		"btrace_store_seals_total",
		"btrace_store_freeze_seconds_total",
		`btrace_store_reads_total{payload="bytes"}`,
		`btrace_store_reads_total{payload="lengths"}`,
		`btrace_store_reads_total{payload="none"}`,
		`btrace_store_block_cache_hits_total{section="partial"}`,
		`btrace_store_block_cache_misses_total{section="partial"}`,
		`btrace_store_block_cache_bytes{section="partial"}`,
		"btrace_serve_query_aborts_total",
		"btrace_live_sse_bytes_total",
		"btrace_live_sse_writes_total",
		"btrace_ingest_queue_depth",
		`btrace_distributor_aggregates_total{path="pushdown"}`,
		`btrace_distributor_aggregates_total{path="merged"}`,
		`btrace_distributor_aggregate_fallbacks_total{reason="unhealthy"}`,
		`btrace_distributor_aggregate_fallbacks_total{reason="mismatch"}`,
		`btrace_distributor_aggregate_fallbacks_total{reason="error"}`,
		"go_gc_cycles_total",
		"go_gc_cpu_seconds_total",
		"go_memstats_alloc_bytes_total",
		"go_memstats_heap_live_bytes",
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("series %s missing from /metrics", name)
		}
	}

	// And the traffic must be visible as counter movement. Other tests in
	// the process share the registry, so compare against the first scrape
	// instead of zero.
	if got := after["btrace_core_writes_total"] - before["btrace_core_writes_total"]; got < writes {
		t.Errorf("core writes moved by %v, want >= %d", got, writes)
	}
	if got := after["btrace_collect_polls_total"] - before["btrace_collect_polls_total"]; got < 3 {
		t.Errorf("collector polls moved by %v, want >= 3", got)
	}
	if got := after["btrace_store_appends_total"] - before["btrace_store_appends_total"]; got < 2 {
		t.Errorf("store appends moved by %v, want >= 2", got)
	}
	moved := func(name string) float64 { return after[name] - before[name] }
	if got := moved("btrace_live_sse_bytes_total"); got < float64(frames) {
		t.Errorf("sse bytes moved by %v, want at least the %d the two frames take", got, frames)
	}
	if got := moved("btrace_live_sse_writes_total"); got < 1 {
		t.Errorf("sse writes moved by %v, want >= 1", got)
	}
	if got := moved(`btrace_distributor_aggregates_total{path="pushdown"}`); got < 1 {
		t.Errorf("aggregates answered by the shards moved by %v, want >= 1", got)
	}
	if moved("btrace_store_cold_raw_bytes_total") <= 0 || moved("btrace_store_freeze_seconds_total") <= 0 {
		t.Errorf("froze %v raw bytes in %v s, want both to move", moved("btrace_store_cold_raw_bytes_total"), moved("btrace_store_freeze_seconds_total"))
	}
	// The test allocated (a tracer, a store) between the scrapes, and a
	// forced cycle must show up as one.
	if got := after["go_memstats_alloc_bytes_total"] - before["go_memstats_alloc_bytes_total"]; got < 1<<20 {
		t.Errorf("allocated bytes moved by %v, want at least the tracer's 1 MiB buffer", got)
	}
	runtime.GC()
	if got := scrape(t, srv)["go_gc_cycles_total"] - after["go_gc_cycles_total"]; got < 1 {
		t.Errorf("GC cycles moved by %v across runtime.GC(), want >= 1", got)
	}
	// The closed store folded into retired totals: its counters persist,
	// its per-instance gauge contribution is gone or reduced to other
	// live stores.
	if got := after["btrace_store_seals_total"] - before["btrace_store_seals_total"]; got < 1 {
		t.Errorf("store seals moved by %v, want >= 1", got)
	}
}

// readerCursor adapts the public Reader to tracer.Cursor: Next is the
// Reader's own, Close gains the error return.
type readerCursor struct{ *btrace.Reader }

func (c readerCursor) Close() error {
	c.Reader.Close()
	return nil
}

// TestPprofEndpoints checks the pprof surface responds on the private mux.
func TestPprofEndpoints(t *testing.T) {
	srv, err := newServer(0.005, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s status %d", path, rec.Code)
		}
	}
}
