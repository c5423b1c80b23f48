package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

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
		if err := st.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := newServer(0.005, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, st
}

func TestStoreEndpointsWithoutStore(t *testing.T) {
	ts := testServer(t) // no store configured
	for _, path := range []string{"/store/segments", "/store/query"} {
		if code, body := get(t, ts.URL+path); code != http.StatusNotFound ||
			!strings.Contains(body, "-store") {
			t.Errorf("%s without store: %d %q", path, code, body)
		}
	}
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
