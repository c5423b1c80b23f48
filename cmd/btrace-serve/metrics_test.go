package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"btrace"
	"btrace/internal/btql"
	"btrace/internal/live"
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

// TestMetricsEndToEnd drives real traffic through the instrumented
// subsystems — a tracer's block lifecycle and a durable store — then
// scrapes /metrics and checks that every subsystem's series are present
// and that the counters moved with the traffic; the Go runtime's own GC
// and allocation series and the ingest store-failure gauge ride along, and so do
// the two costs beside the write path: what a /live stream wrote in how
// many socket writes, and how long the freezer took over the bytes it
// froze — and, from a cluster beside the server, which path answers its
// aggregates. (The one btrace_collect_* series a server emits, the
// admission verifier's quarantine count, is TestMetricsIngestSeries'.)
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

	// Core: record events.
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
	// The buffer's obs collector retires via finalizer; keep the tracer
	// reachable past the scrape or a GC between here and there folds its
	// gauge series away.
	defer runtime.KeepAlive(tr)

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
	// Two CSV-style reads of the sealed segment: the build of its header
	// set, a read of the set.
	for range 2 {
		cur := st.QueryParallel(store.Query{LengthsOnly: true}, 1)
		if es, err := tracer.Drain(cur, 16); err != nil || len(es) != 2 {
			t.Fatalf("length-only read: %d events, %v", len(es), err)
		}
		cur.Close()
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
	cp, err := newClusterPipeline(clusterConfig{Dir: t.TempDir(), Shards: 2, Replication: 2, Ingest: ingestConfig{SampleRate: 1}})
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
		`btrace_store_block_cache_hits_total{section="headers"}`,
		`btrace_store_block_cache_misses_total{section="headers"}`,
		`btrace_store_block_cache_bytes{section="headers"}`,
		"btrace_serve_query_aborts_total",
		"btrace_live_sse_bytes_total",
		"btrace_live_sse_writes_total",
		"btrace_ingest_store_failed",
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
	if h, m := moved(`btrace_store_block_cache_hits_total{section="headers"}`), moved(`btrace_store_block_cache_misses_total{section="headers"}`); h < 1 || m < 1 {
		t.Errorf("header sets served %v reads and were built %v times, want >= 1 each", h, m)
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

// TestMetricsIngestSeries: the server reports what its own paths do.
// The single-store path's btrace_ingest_* series move with posted
// traffic, a failed append and a dropped batch included; the one
// btrace_collect_* series left is the verifier's quarantine count, which
// ingest.Admission emits once in either mode and which moves by exactly
// the entries posted that fail verification.
func TestMetricsIngestSeries(t *testing.T) {
	const quarantined = "btrace_collect_quarantined_total"
	collectSeries := func(m map[string]float64) []string {
		var names []string
		for name := range m {
			if strings.HasPrefix(name, "btrace_collect_") && name != quarantined {
				names = append(names, name)
			}
		}
		return names
	}
	// Two events of thread 9 fail verification: a stamp below the
	// thread's last, and stamp 0.
	withQuarantine := func(tid uint32) []byte {
		return encodeEvents(t, []tracer.Entry{
			{Stamp: 10, TS: 10, TID: tid, Level: 1}, {Stamp: 11, TS: 11, TID: tid, Level: 1},
			{Stamp: 5, TS: 12, TID: tid, Level: 1}, {Stamp: 0, TS: 13, TID: tid, Level: 1},
			{Stamp: 12, TS: 14, TID: tid, Level: 1},
		})
	}

	srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
	// The first batch's one append fails and it is dropped; the second is
	// applied.
	srv.ingest.sink = &flakySink{st: st, failures: 1}
	before := scrape(t, srv)
	for i, body := range [][]byte{withQuarantine(9), encodeEvents(t, clusterEvents(4, 100))} {
		if rec := httpPost(t, srv, "/ingest", body); rec.Code != 202 {
			t.Fatalf("post %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	after := scrape(t, srv)
	if _, ok := after["btrace_ingest_store_failed"]; !ok {
		t.Error("series btrace_ingest_store_failed missing")
	}
	for name, want := range map[string]float64{
		"btrace_ingest_batches_total":          2,
		"btrace_ingest_dropped_batches_total":  1,
		"btrace_ingest_dropped_events_total":   5,
		"btrace_ingest_events_throttled_total": 0,
		quarantined:                            2,
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("series %s missing", name)
		}
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %v, want %v", name, got, want)
		}
	}
	if names := collectSeries(after); len(names) > 0 {
		t.Errorf("a server with no supervisor exports %v", names)
	}

	// Cluster mode: the distributor's Admission counts it, once, and /ring
	// reads the same count.
	cluster := newClusterServer(t, 2, 2, "")
	before = scrape(t, cluster)
	if rec := httpPost(t, cluster, "/ingest", withQuarantine(9)); rec.Code != 202 {
		t.Fatalf("cluster post: status %d: %s", rec.Code, rec.Body.String())
	}
	after = scrape(t, cluster)
	if got := after[quarantined] - before[quarantined]; got != 2 {
		t.Errorf("cluster: %s moved by %v, want 2", quarantined, got)
	}
	if names := collectSeries(after); len(names) > 0 {
		t.Errorf("cluster: a server with no supervisor exports %v", names)
	}
	var ring struct {
		Stats struct{ Quarantined uint64 } `json:"stats"`
	}
	if err := json.Unmarshal(httpGet(t, cluster, "/ring").Body.Bytes(), &ring); err != nil {
		t.Fatal(err)
	}
	if ring.Stats.Quarantined != 2 {
		t.Errorf("/ring stats.Quarantined = %d, want 2", ring.Stats.Quarantined)
	}
}

// TestPprofEndpoints checks the pprof surface responds on the private mux.
func TestPprofEndpoints(t *testing.T) {
	srv := newServer(nil)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s status %d", path, rec.Code)
		}
	}
}
