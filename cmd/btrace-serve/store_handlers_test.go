package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"btrace/internal/btql"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

func storeServer(t *testing.T, n int) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < n; i++ {
		e := tracer.Entry{
			Stamp:    uint64(i + 1),
			TS:       uint64(1000 + i),
			Core:     uint8(i % 4),
			TID:      uint32(i % 5),
			Category: uint8(i % 3),
			Level:    1,
		}
		if err := st.AppendEntries([]tracer.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(newServer(st))
	t.Cleanup(ts.Close)
	return ts, st
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStoreSegmentsEndpoint(t *testing.T) {
	ts, st := storeServer(t, 10)
	code, body := get(t, ts.URL+"/store/segments")
	if code != http.StatusOK {
		t.Fatalf("status %d:\n%s", code, body)
	}
	var resp struct {
		Dir      string              `json:"dir"`
		Segments []store.SegmentInfo `json:"segments"`
		Events   uint64              `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if resp.Dir != st.Dir() || resp.Events != 10 || len(resp.Segments) == 0 {
		t.Fatalf("segments response: %+v", resp)
	}
	if s0 := resp.Segments[0]; s0.BaseStamp != 1 || s0.MaxStamp != 10 {
		t.Fatalf("segment meta: %+v", s0)
	}
}

func TestStoreQueryEndpoint(t *testing.T) {
	ts, _ := storeServer(t, 20)

	// Default text format, stamp-range filtered.
	code, body := get(t, ts.URL+"/store/query?min_stamp=5&max_stamp=8")
	if code != http.StatusOK {
		t.Fatalf("status %d:\n%s", code, body)
	}
	if n := strings.Count(strings.TrimSpace(body), "\n") + 1; n != 4 {
		t.Fatalf("want 4 text lines, got %d:\n%s", n, body)
	}

	// CSV has a header row plus one line per event.
	code, body = get(t, ts.URL+"/store/query?format=csv&limit=3")
	if code != http.StatusOK || strings.Count(body, "\n") != 4 {
		t.Fatalf("csv: %d\n%s", code, body)
	}

	// Chrome trace is valid JSON with the filtered events.
	code, body = get(t, ts.URL+"/store/query?format=chrome&cores=1")
	if code != http.StatusOK {
		t.Fatalf("chrome: %d", code)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 5 { // stamps 2,6,10,14,18 on core 1
		t.Fatalf("chrome events: %d", len(parsed.TraceEvents))
	}

	// tids= filters here as it does on /live: it is `tid in (…)`, by
	// another spelling, and ANDs with the rest.
	code, body = get(t, ts.URL+"/store/query?format=csv&tids=1,3")
	if code != http.StatusOK || strings.Count(body, "\n") != 1+8 { // stamps 2,4,7,9,12,14,17,19
		t.Fatalf("tids=1,3: %d, want the header and 8 rows:\n%s", code, body)
	}
	if _, sugar := get(t, ts.URL+"/store/query?format=csv&q="+url.QueryEscape("tid in (1, 3)")); sugar != body {
		t.Fatalf("q=tid in (1, 3) and tids=1,3 differ:\n%s\n%s", sugar, body)
	}
	code, body = get(t, ts.URL+"/store/query?format=csv&tids=1,3&cores=1&min_stamp=3")
	if code != http.StatusOK || strings.Count(body, "\n") != 1+1 || !strings.Contains(body, "\n14,") {
		t.Fatalf("tids=1,3&cores=1&min_stamp=3: %d, want stamp 14 alone:\n%s", code, body)
	}

	// Parameter validation.
	for _, q := range []string{
		"?min_stamp=zebra",
		"?tids=1,x",
		"?tids=" + strings.Repeat("1,", 256) + "1",
		"?cores=1,999",
		"?limit=0",
		"?limit=99999999",
		"?format=xml",
		// The bounds /live enforces, through the same parsers.
		"?min_stamp=10&max_stamp=9",
		"?min_ts=10&max_ts=9",
		"?categories=" + strings.Repeat("1,", 256) + "1",
	} {
		if code, _ := get(t, ts.URL+"/store/query"+q); code != http.StatusBadRequest {
			t.Errorf("query %s: status %d, want 400", q, code)
		}
	}
}

// TestStoreQueryBTQL: ?q= compiles a BTQL filter into the query and, with
// a pipeline aggregate, turns the response into one JSON document instead
// of an event stream.
func TestStoreQueryBTQL(t *testing.T) {
	ts, _ := storeServer(t, 20)
	esc := url.QueryEscape

	// Filter stage only: same text stream as the field parameters.
	code, body := get(t, ts.URL+"/store/query?q="+esc(`core == 1`))
	if code != http.StatusOK {
		t.Fatalf("status %d:\n%s", code, body)
	}
	if n := strings.Count(strings.TrimSpace(body), "\n") + 1; n != 5 {
		t.Fatalf("core == 1 matched %d lines, want 5:\n%s", n, body)
	}

	// BTQL ANDs with the field parameters.
	code, body = get(t, ts.URL+"/store/query?max_stamp=10&q="+esc(`core == 1`))
	if code != http.StatusOK {
		t.Fatalf("status %d:\n%s", code, body)
	}
	if n := strings.Count(strings.TrimSpace(body), "\n") + 1; n != 3 {
		t.Fatalf("core == 1 under max_stamp=10 matched %d lines, want 3", n)
	}

	// Aggregate stage: one JSON result, limit ignored.
	code, body = get(t, ts.URL+"/store/query?limit=2&q="+esc(`core == 1 | count()`))
	if code != http.StatusOK {
		t.Fatalf("aggregate status %d:\n%s", code, body)
	}
	var resp struct {
		Query  string      `json:"query"`
		Result btql.Result `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid aggregate JSON: %v\n%s", err, body)
	}
	if resp.Result.Kind != "count" || resp.Result.Events != 5 {
		t.Fatalf("count aggregate: %+v", resp.Result)
	}

	code, body = get(t, ts.URL+"/store/query?q="+esc(`stamp <= 10 | topk(2, core)`))
	if code != http.StatusOK {
		t.Fatalf("topk status %d:\n%s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("invalid topk JSON: %v\n%s", err, body)
	}
	if resp.Result.Kind != "topk" || len(resp.Result.Top) != 2 ||
		resp.Result.Top[0].Value != 0 || resp.Result.Top[0].Count != 3 {
		t.Fatalf("topk aggregate: %+v", resp.Result)
	}

	// A malformed query is a client error.
	for _, bad := range []string{`core ==`, `tid ~ 5`, `| rate()`} {
		if code, _ := get(t, ts.URL+"/store/query?q="+esc(bad)); code != http.StatusBadRequest {
			t.Errorf("q=%s: status %d, want 400", bad, code)
		}
	}
}

// sealedStoreServer serves a store of two sealed segments of n events
// each, stamps from 1, every payload "s<stamp>".
func sealedStoreServer(t *testing.T, n int, cfg store.Config) (*httptest.Server, *server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, start := range []uint64{1, uint64(n) + 1} {
		if err := st.AppendEntries(clusterEvents(n, start)); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	srv := newServer(st)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, st
}

// TestStoreQueryAbortsFailedExport: an export that fails after the
// response has begun must not end as a clean 200 — the client has to
// see the body break off, not a complete-looking prefix of it — and one
// that fails before its first byte is a 500. A flipped payload byte in
// a sealed segment fails the frame checksum of the row it belongs to,
// which a length-only read (csv, chrome) verifies like any other. The
// store has no block cache, so every export walks the frames: a header
// set admitted before the flip would serve csv and chrome from what it
// verified then (store/blockcache.go). A segment's CSV is several of
// the CSV writer's 64 KiB buffers, so its rows reach the client before
// the next segment fails.
func TestStoreQueryAbortsFailedExport(t *testing.T) {
	const n = 8000
	ts, srv, st := sealedStoreServer(t, n, store.Config{ColdCacheBytes: -1})
	segs := st.Segments()
	if len(segs) < 2 || !segs[1].Sealed {
		t.Fatalf("fixture: %+v", segs)
	}
	flip := func(seg store.SegmentInfo, stamp int) {
		t.Helper()
		path := filepath.Join(st.Dir(), seg.File)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(img, []byte(fmt.Sprintf("s%d", stamp)))
		if at < 0 {
			t.Fatalf("payload of stamp %d not in %s", stamp, seg.File)
		}
		img[at] ^= 0x40
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	whole := map[string]int{}
	for _, format := range []string{"text", "csv", "chrome"} {
		_, body := get(t, ts.URL+"/store/query?format="+format)
		whole[format] = len(body)
	}

	// Mid-stream: the second segment is corrupt, the first streams out.
	flip(segs[1], n+n/2)
	before := scrape(t, srv)["btrace_serve_query_aborts_total"]
	var aborted float64
	for _, format := range []string{"text", "csv", "chrome"} {
		resp, err := http.Get(ts.URL + "/store/query?format=" + format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want the 200 the stream began with", format, resp.StatusCode)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: body read ended with %v after %d bytes, want io.ErrUnexpectedEOF", format, err, len(body))
		}
		if len(body) == 0 || len(body) >= whole[format] {
			t.Errorf("%s: %d bytes of a %d-byte export arrived", format, len(body), whole[format])
		}
		aborted++
	}
	if got := scrape(t, srv)["btrace_serve_query_aborts_total"] - before; got != aborted {
		t.Errorf("btrace_serve_query_aborts_total moved by %v over %v aborted exports", got, aborted)
	}

	// Before the first byte: the first row read is corrupt.
	flip(segs[0], 1)
	for _, format := range []string{"text", "csv"} {
		if code, body := get(t, ts.URL+"/store/query?format="+format); code != http.StatusInternalServerError || !strings.Contains(body, "corrupt") {
			t.Errorf("%s over a corrupt first row: %d %q, want a 500 naming the corruption", format, code, body)
		}
	}
}

// TestStoreQueryProjection: the format picks what the scan reads. Over a
// cold window a CSV or Chrome export inflates no payload chunk and
// leaves none in the block cache; the same window as text does both;
// btrace_store_reads_total says which kind of read each was, and an
// unknown format is refused before any read is opened.
func TestStoreQueryProjection(t *testing.T) {
	ts, srv, st := sealedStoreServer(t, 2000, store.Config{ColdAfterNs: 1})
	if err := st.AppendEntries(clusterEvents(10, 1<<20)); err != nil { // a newer tail: everything sealed is cold-eligible
		t.Fatal(err)
	}
	if froze, err := st.CompactCold(); err != nil || froze == 0 {
		t.Fatalf("CompactCold froze %d segments: %v", froze, err)
	}
	const (
		inflated = "btrace_store_payload_inflated_bytes_total"
		resident = `btrace_store_block_cache_bytes{section="payload"}`
		lengths  = `btrace_store_reads_total{payload="lengths"}`
		bytesRd  = `btrace_store_reads_total{payload="bytes"}`
		none     = `btrace_store_reads_total{payload="none"}`
	)
	window := "&min_stamp=500&max_stamp=3500"
	last := scrape(t, srv)
	moved := func() map[string]float64 {
		now := scrape(t, srv)
		d := map[string]float64{}
		for _, k := range []string{inflated, resident, lengths, bytesRd, none} {
			d[k] = now[k] - last[k]
		}
		last = now
		return d
	}
	for _, q := range []string{"format=csv", "format=chrome"} {
		if code, body := get(t, ts.URL+"/store/query?"+q+window); code != http.StatusOK || strings.Count(body, "\n") < 1 {
			t.Fatalf("%s: %d", q, code)
		}
		if d := moved(); d[inflated] != 0 || d[resident] != 0 || d[lengths] != 1 || d[bytesRd] != 0 {
			t.Errorf("%s: moved %v, want one length-only read and no payload inflated or cached", q, d)
		}
	}
	if code, body := get(t, ts.URL+"/store/query?format=text"+window); code != http.StatusOK || strings.Count(body, "\n") != 3001 {
		t.Fatalf("text: %d, %d lines", code, strings.Count(body, "\n"))
	}
	if d := moved(); d[inflated] <= 0 || d[resident] <= 0 || d[bytesRd] != 1 || d[lengths] != 0 {
		t.Errorf("text: moved %v, want one payload-bytes read that inflated and cached chunks", d)
	}
	if code, _ := get(t, ts.URL+"/store/query?q="+url.QueryEscape("stamp >= 1 | count()")); code != http.StatusOK {
		t.Fatalf("count(): %d", code)
	}
	if d := moved(); d[none] != 1 || d[lengths] != 0 || d[bytesRd] != 0 {
		t.Errorf("count(): moved %v, want one read that asked nothing of the payload", d)
	}
	if code, _ := get(t, ts.URL+"/store/query?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("format=xml: %d", code)
	}
	if d := moved(); d[lengths] != 0 || d[bytesRd] != 0 {
		t.Errorf("format=xml opened a read before it was refused: %v", d)
	}
}

// TestStoreQueryAggregatePartials: /metrics shows a repeated aggregate
// being served. The first count() folds every sealed segment (a partial
// miss each, no hit) and leaves their partials in the block cache; the
// second is handed each of them and folds only the active segment; both
// are reads that asked nothing of the payload, and the unlabelled
// hit/miss pair — sections inflated or not — is moved by neither's
// partials.
func TestStoreQueryAggregatePartials(t *testing.T) {
	ts, srv, st := sealedStoreServer(t, 2000, store.Config{ColdAfterNs: 1})
	if err := st.AppendEntries(clusterEvents(10, 1<<20)); err != nil { // an active tail; the first sealed segment is cold-eligible
		t.Fatal(err)
	}
	if froze, err := st.CompactCold(); err != nil || froze == 0 {
		t.Fatalf("CompactCold froze %d segments: %v", froze, err)
	}
	var sealed float64
	for _, s := range st.Segments() {
		if s.Sealed {
			sealed++
		}
	}
	if sealed < 1 || int(sealed) != len(st.Segments())-1 {
		t.Fatalf("fixture: %+v", st.Segments())
	}
	const (
		hits     = `btrace_store_block_cache_hits_total{section="partial"}`
		misses   = `btrace_store_block_cache_misses_total{section="partial"}`
		resident = `btrace_store_block_cache_bytes{section="partial"}`
		none     = `btrace_store_reads_total{payload="none"}`
		allHits  = "btrace_store_block_cache_hits_total"
		allMiss  = "btrace_store_block_cache_misses_total"
	)
	last := scrape(t, srv)
	moved := func() map[string]float64 {
		now := scrape(t, srv)
		d := map[string]float64{}
		for _, k := range []string{hits, misses, resident, none, allHits, allMiss} {
			d[k] = now[k] - last[k]
		}
		last = now
		return d
	}
	count := ts.URL + "/store/query?q=" + url.QueryEscape("category == 1 | count()")
	code, first := get(t, count)
	if code != http.StatusOK {
		t.Fatalf("count(): %d", code)
	}
	if d := moved(); d[misses] != sealed || d[hits] != 0 || d[resident] <= 0 || d[none] != 1 || d[allMiss] <= 0 {
		t.Errorf("first count(): moved %v, want %v partial misses, no hit, one payload-free read and the cold sections inflated", d, sealed)
	}
	code, second := get(t, count)
	if code != http.StatusOK || second != first {
		t.Fatalf("second count(): %d %q, want %q", code, second, first)
	}
	if d := moved(); d[hits] != sealed || d[misses] != 0 || d[resident] != 0 || d[none] != 1 || d[allHits] != 0 || d[allMiss] != 0 {
		t.Errorf("second count(): moved %v, want %v partial hits, no miss, one payload-free read and no section looked up", d, sealed)
	}
}

// TestStoreQueryOneRowAllocs: a one-row CSV query — tail-mixed's
// freshness probe, polled until a batch is visible — takes its 64 KiB CSV
// writer from a pool, so what it allocates is its 1024-entry export
// batch and a little more, not the writer's buffer on top; and it
// allocates less often than with bufio's default writer (73 times).
func TestStoreQueryOneRowAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under -race sync.Pool drops what is Put at random")
	}
	_, st := storeServer(t, 100)
	srv := newServer(st)
	req := httptest.NewRequest(http.MethodGet, "/store/query?format=csv&min_stamp=50&max_stamp=50&limit=1", nil)
	run := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), "\n") != 2 {
			t.Fatalf("%d %q", rec.Code, rec.Body.String())
		}
	}
	allocs := testing.AllocsPerRun(200, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	batch := uint64(1024 * unsafe.Sizeof(tracer.Entry{}))
	t.Logf("%.0f allocations, %d B", allocs, bytes)
	if allocs >= 73 || bytes > batch+32<<10 {
		t.Fatalf("a one-row CSV query allocates %.0f times, %d B (its batch is %d B)", allocs, bytes, batch)
	}
}
