package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// encodeEvents wire-encodes entries the way a client of POST /ingest
// would: tracer.EncodeEvent records, concatenated.
func encodeEvents(t *testing.T, es []tracer.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range es {
		rec := make([]byte, es[i].WireSize())
		n, err := tracer.EncodeEvent(rec, &es[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(rec[:n])
	}
	return buf.Bytes()
}

func httpGet(t *testing.T, srv *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func httpPost(t *testing.T, srv *server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// newIngestServer builds a server over a fresh store with a live ingest
// pipeline; cleanup stops the pipeline before the store closes, like
// main does.
func newIngestServer(t *testing.T, cfg ingestConfig) (*server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ing, err := newIngestPipeline(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	srv := newServer(st)
	srv.attachIngest(ing)
	return srv, st
}

// TestIngestEndToEnd: well-formed posted events land durably in the
// store, the response reports the accepted count, and the probes stay
// green throughout.
func TestIngestEndToEnd(t *testing.T) {
	srv, st := newIngestServer(t, ingestConfig{SampleRate: 1, Shed: true})
	body := encodeEvents(t, []tracer.Entry{
		{Stamp: 1, TS: 10, TID: 7, Category: 1, Level: 1, Payload: []byte("a")},
		{Stamp: 2, TS: 20, TID: 7, Category: 1, Level: 1},
		{Stamp: 3, TS: 30, TID: 7, Category: 2, Level: 2},
	})
	rec := httpPost(t, srv, "/ingest", body)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct{ Accepted int }
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 {
		t.Fatalf("accepted %d, want 3", resp.Accepted)
	}
	if rec := httpGet(t, srv, "/readyz"); rec.Code != 200 {
		t.Fatalf("/readyz during ingest: %d %s", rec.Code, rec.Body.String())
	}
	// A 202 is an enqueue; Close returns once the drain has applied
	// everything accepted, so the store holds all three right after it.
	srv.ingest.Close()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Events(); got != 3 {
		t.Fatalf("store holds %d events after Close, want 3", got)
	}
}

// TestIngestTenantOverrideOverHTTP is the single-store twin of
// TestClusterTenantOverrideOverHTTP: -tenant-overrides holds the named
// tenant to its quota here too, and /metrics attributes what it dropped.
func TestIngestTenantOverrideOverHTTP(t *testing.T) {
	overrides, err := ingest.ParseOverrides("limited=1:1")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1, Overrides: overrides})
	const throttled = "btrace_ingest_events_throttled_total"
	before := scrape(t, srv)[throttled]
	es := make([]tracer.Entry, 6)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1000, TID: 9, Category: 1, Level: 1}
	}
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(encodeEvents(t, es)))
	req.Header.Set(tenantHeader, "limited")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}
	srv.ingest.Close()
	qrec := httpGet(t, srv, "/store/query")
	if rows := strings.Count(qrec.Body.String(), "\n"); qrec.Code != 200 || rows != 1 {
		t.Fatalf("/store/query: status %d, %d rows, want the 1 event the quota admits:\n%s", qrec.Code, rows, qrec.Body.String())
	}
	if got := scrape(t, srv)[throttled] - before; got != 5 {
		t.Fatalf("%s moved by %v, want 5", throttled, got)
	}
}

// TestIngestRejectsBadPayloads covers the 4xx surface: wrong method,
// corrupt framing, event-free payloads, oversized bodies.
func TestIngestRejectsBadPayloads(t *testing.T) {
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1, Shed: true})
	if rec := httpGet(t, srv, "/ingest"); rec.Code != 405 {
		t.Errorf("GET /ingest: status %d, want 405", rec.Code)
	}
	if rec := httpPost(t, srv, "/ingest", []byte("garbage!")); rec.Code != 400 {
		t.Errorf("corrupt payload: status %d, want 400", rec.Code)
	}
	if rec := httpPost(t, srv, "/ingest", nil); rec.Code != 400 {
		t.Errorf("empty payload: status %d, want 400", rec.Code)
	}
	if rec := httpPost(t, srv, "/ingest", make([]byte, maxIngestBody+8)); rec.Code != 413 {
		t.Errorf("oversized payload: status %d, want 413", rec.Code)
	}
}

// TestIngestQueueFullBackpressure: a stalled pipeline (no drain
// goroutine, one-slot queue) answers 429 with Retry-After instead of
// queuing without bound.
func TestIngestQueueFullBackpressure(t *testing.T) {
	srv := newServer(nil)
	srv.attachIngest(&ingestPipeline{queue: make(chan *ingestBatch, 1)})
	body := encodeEvents(t, []tracer.Entry{{Stamp: 1, TS: 10, TID: 7, Category: 1, Level: 1}})
	if rec := httpPost(t, srv, "/ingest", body); rec.Code != 202 {
		t.Fatalf("first post: status %d", rec.Code)
	}
	rec := httpPost(t, srv, "/ingest", body)
	if rec.Code != 429 {
		t.Fatalf("second post: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.ingest.rejected.Load(); got != 1 {
		t.Errorf("rejected batches: %d, want 1", got)
	}
}

// TestReadyzReportsOverloadAndStoreFailure: the readiness probe turns
// 503 with a reason for each not-ready condition it folds in.
func TestReadyzReportsOverloadAndStoreFailure(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(st)
	// A hand-built pipeline (no goroutine) whose gate moves one tier per
	// evaluation lets the test drive the tier deterministically.
	p := &ingestPipeline{st: st, sink: st, adm: ingest.NewAdmission(overload.Config{EngageAfter: 1, CooldownEvals: 1}, nil, nil)}
	srv.attachIngest(p)
	evaluate := func(failed bool) {
		for range overload.TierStream {
			p.adm.Evaluate(overload.StorePressure{Failed: failed})
		}
	}

	if rec := httpGet(t, srv, "/readyz"); rec.Code != 200 {
		t.Fatalf("healthy: /readyz status %d", rec.Code)
	}
	evaluate(true)
	rec := httpGet(t, srv, "/readyz")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "full-drop tier") {
		t.Errorf("full-drop tier: status %d body %q", rec.Code, rec.Body.String())
	}
	evaluate(false)
	if rec := httpGet(t, srv, "/readyz"); rec.Code != 200 {
		t.Fatalf("released: /readyz status %d %q", rec.Code, rec.Body.String())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec = httpGet(t, srv, "/readyz")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "store write path failed") {
		t.Errorf("closed store: status %d body %q", rec.Code, rec.Body.String())
	}
}
