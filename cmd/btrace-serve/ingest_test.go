package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

// newIngestServer builds a server over a fresh store with its
// single-store ingest path; cleanup stops the gate loop before the store
// closes, like main does.
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
	// The handler appends before it returns.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Events(); got != 3 {
		t.Fatalf("store holds %d events after the 202, want 3", got)
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

// blockingSink holds the first append until release is closed, and
// closes started when that append begins.
type blockingSink struct {
	st      *store.Store
	started chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func (s *blockingSink) AppendEntries(es []tracer.Entry) error {
	if s.calls.Add(1) == 1 {
		close(s.started)
		<-s.release
	}
	return s.st.AppendEntries(es)
}

func (s *blockingSink) WriteErr() error { return s.st.WriteErr() }

// TestIngestAckPrecedesAppend: on a single store the 202 is written
// whole after admission and before the append, and the append runs on
// the request's goroutine. A client holds its complete 202 while the
// append behind it is still blocked; once the handler returns the store
// counts the batch, with no Close and no poll; and a batch of the same
// thread posted on a second connection after the first 202 follows it
// in the verifier's order, so it is not quarantined.
func TestIngestAckPrecedesAppend(t *testing.T) {
	srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
	sink := &blockingSink{st: st, started: make(chan struct{}), release: make(chan struct{})}
	srv.ingest.sink = sink
	returned := make(chan struct{}, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	release := sync.OnceFunc(func() { close(sink.release) })
	t.Cleanup(release) // before ts.Close, which waits for the handlers

	// post sends one batch of thread 7 on a connection of its own and
	// reads its 202 to the end.
	post := func(first uint64) {
		t.Helper()
		es := make([]tracer.Entry, 3)
		for i := range es {
			stamp := first + uint64(i)
			es[i] = tracer.Entry{Stamp: stamp, TS: 10 * stamp, TID: 7, Category: 1, Level: 1}
		}
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr}).Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(encodeEvents(t, es)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		const want = `{"accepted":3}` + "\n"
		// Without a declared length the body would end only when the
		// handler returns, after the append.
		if resp.StatusCode != 202 || resp.ContentLength != int64(len(want)) {
			t.Fatalf("post at stamp %d: status %d, Content-Length %d; want 202, %d", first, resp.StatusCode, resp.ContentLength, len(want))
		}
		if body, err := io.ReadAll(resp.Body); err != nil || string(body) != want {
			t.Fatalf("post at stamp %d: body %q (%v), want %q", first, body, err, want)
		}
	}

	post(1)
	<-sink.started
	select {
	case <-returned:
		t.Fatal("the handler returned while its append was held")
	default:
	}
	if n := st.Events(); n != 0 {
		t.Fatalf("store holds %d events while the append is held, want 0", n)
	}

	post(4) // its append is not held
	<-returned
	if n, q := st.Events(), srv.ingest.adm.Quarantined(); n != 3 || q != 0 {
		t.Fatalf("after the second handler returned: %d events stored, %d quarantined; want 3, 0", n, q)
	}

	release()
	<-returned
	if n, q := st.Events(), srv.ingest.adm.Quarantined(); n != 6 || q != 0 {
		t.Fatalf("after both handlers returned: %d events stored, %d quarantined; want 6, 0", n, q)
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
