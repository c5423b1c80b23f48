package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"btrace/internal/live"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// TestMain runs the whole package under the release poison: every test
// that posts to /ingest — single store or cluster — then reads its
// events back from a body that has been scribbled over, so anything
// that kept a reference past its ownership reads garbage. Benchmarks
// run without it; the scribble is not part of the path they measure.
// Started with serveMainEnv set, the test binary is btrace-serve itself
// (TestMetricsSeriesInventory's child).
func TestMain(m *testing.M) {
	if os.Getenv(serveMainEnv) != "" {
		main()
		os.Exit(0)
	}
	flag.Parse()
	poisonReleased = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}

// TestIngestOwnershipConcurrentTenants: 64 concurrent posts from two
// tenants, every batch released (and poisoned) by the drain as soon as
// it is applied while the next ones are still decoding into recycled
// buffers. Every payload must come back byte-identical from a /live
// subscriber and from /store/query, and Close must leave all of them in
// the store.
func TestIngestOwnershipConcurrentTenants(t *testing.T) {
	const posts, perPost = 64, 16
	ts, hub := liveServer(t, live.Config{})
	resp := openLive(t, hub, ts.URL+"/live", "")

	payload := func(stamp uint64, tenant string) []byte {
		return []byte(fmt.Sprintf("%s stamp=%06d tail", tenant, stamp))
	}
	want := map[uint64][]byte{}
	bodies := make([][]byte, posts)
	tenants := make([]string, posts)
	for k := range bodies {
		tenants[k] = []string{"alpha", "beta"}[k%2]
		es := make([]tracer.Entry, perPost)
		for i := range es {
			stamp := uint64(k*100 + i + 1)
			es[i] = tracer.Entry{Stamp: stamp, TS: stamp, TID: uint32(1000 + k), Category: 1, Level: 1,
				Payload: payload(stamp, tenants[k])}
			want[stamp] = es[i].Payload
		}
		bodies[k] = encodeEvents(t, es)
	}

	var wg sync.WaitGroup
	errs := make(chan error, posts)
	for k := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/ingest", bytes.NewReader(bodies[k]))
			req.Header.Set(tenantHeader, tenants[k])
			pr, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			pr.Body.Close()
			if pr.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("post %d: status %d", k, pr.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, e := range readLiveStamps(t, resp, posts*perPost) {
		if !bytes.Equal(e.Payload, want[e.Stamp]) {
			t.Fatalf("/live stamp %d: payload %q, want %q", e.Stamp, e.Payload, want[e.Stamp])
		}
	}

	code, body := get(t, ts.URL+"/store/query?limit=100000")
	if code != http.StatusOK {
		t.Fatalf("/store/query status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != posts*perPost {
		t.Fatalf("/store/query returned %d events, want %d", len(lines), posts*perPost)
	}
	for stamp, p := range want {
		if needle := fmt.Sprintf("stamp=%d  %q\n", stamp, p); !strings.Contains(body, needle) {
			t.Fatalf("/store/query has no line ending %q", needle)
		}
	}
}

// flakySink fails its first failures appends, then delegates.
type flakySink struct {
	st       *store.Store
	failures int
	calls    int
}

func (f *flakySink) AppendEntries(es []tracer.Entry) error {
	f.calls++
	if f.calls <= f.failures {
		return errors.New("injected append failure")
	}
	return f.st.AppendEntries(es)
}

func (f *flakySink) WriteErr() error { return f.st.WriteErr() }

// TestIngestDrainFailurePath: the plain drain's outcomes for a failed
// append — a refused batch is tried once and counted dropped,
// event-exact, while the batch behind it is applied; a sink that refuses
// every append exhausts each batch's one-attempt budget and counts it
// dropped once; a sticky store failure is counted the same way and
// reported by /readyz — with Close returning only after the accepted
// batches were applied or counted.
func TestIngestDrainFailurePath(t *testing.T) {
	body := encodeEvents(t, []tracer.Entry{
		{Stamp: 1, TS: 10, TID: 7, Category: 1, Level: 1, Payload: []byte("a")},
		{Stamp: 2, TS: 20, TID: 7, Category: 1, Level: 1},
		{Stamp: 3, TS: 30, TID: 7, Category: 2, Level: 2},
	})
	const dropped = "btrace_ingest_dropped_events_total"
	post := func(t *testing.T, srv *server, body []byte) {
		t.Helper()
		if rec := httpPost(t, srv, "/ingest", body); rec.Code != 202 {
			t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}

	t.Run("a refused batch is tried once and dropped once", func(t *testing.T) {
		srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
		sink := &flakySink{st: st, failures: 1}
		srv.ingest.sink = sink
		before := scrape(t, srv)[dropped]
		post(t, srv, body)
		post(t, srv, encodeEvents(t, clusterEvents(4, 100)))
		srv.ingest.Close()
		if p := srv.ingest; sink.calls != 2 || p.droppedBatches.Load() != 1 || p.droppedEvents.Load() != 3 {
			t.Fatalf("%d append calls, %d batches (%d events) dropped; want 2, 1 (3)",
				sink.calls, p.droppedBatches.Load(), p.droppedEvents.Load())
		}
		if got := scrape(t, srv)[dropped] - before; got != 3 {
			t.Fatalf("%s moved by %v, want 3", dropped, got)
		}
		if st.Events() != 4 {
			t.Fatalf("store holds %d events, want the second batch's 4", st.Events())
		}
	})

	t.Run("exhausted budget counts the batch dropped once", func(t *testing.T) {
		srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
		sink := &flakySink{st: st, failures: 1 << 30}
		srv.ingest.sink = sink
		before := scrape(t, srv)[dropped]
		post(t, srv, body)
		srv.ingest.Close()
		if p := srv.ingest; sink.calls != 1 || p.droppedBatches.Load() != 1 || p.droppedEvents.Load() != 3 {
			t.Fatalf("%d append calls, %d batches (%d events) dropped; want 1, 1 (3)",
				sink.calls, p.droppedBatches.Load(), p.droppedEvents.Load())
		}
		if got := scrape(t, srv)[dropped] - before; got != 3 {
			t.Fatalf("%s moved by %v, want 3", dropped, got)
		}
		if st.Events() != 0 {
			t.Fatalf("store holds %d events, want 0", st.Events())
		}
		// A healthy store behind a refused batch is still ready.
		if rec := httpGet(t, srv, "/readyz"); rec.Code != 200 {
			t.Fatalf("/readyz status %d: %s", rec.Code, rec.Body.String())
		}
	})

	t.Run("sticky store failure fails fast and turns readyz 503", func(t *testing.T) {
		srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
		sink := &flakySink{st: st}
		srv.ingest.sink = sink
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		post(t, srv, body) // still a 202: the ack is an enqueue
		if m := scrape(t, srv); m["btrace_ingest_store_failed"] != 1 {
			t.Fatalf("btrace_ingest_store_failed = %v, want 1", m["btrace_ingest_store_failed"])
		}
		srv.ingest.Close()
		if p := srv.ingest; sink.calls != 1 || p.droppedEvents.Load() != 3 {
			t.Fatalf("%d append calls, %d events dropped; want 1 and 3", sink.calls, p.droppedEvents.Load())
		}
		rec := httpGet(t, srv, "/readyz")
		if rec.Code != 503 || !strings.Contains(rec.Body.String(), "store write path failed") {
			t.Fatalf("/readyz status %d body %q", rec.Code, rec.Body.String())
		}
		// Closed means closed: a late post is refused, not lost.
		if rec := httpPost(t, srv, "/ingest", body); rec.Code != 429 {
			t.Fatalf("post after Close: status %d, want 429", rec.Code)
		}
	})
}

// failReader fails the test if the handler reads the body at all.
type failReader struct{ t *testing.T }

func (r failReader) Read([]byte) (int, error) {
	r.t.Error("body read although Content-Length already exceeds the cap")
	return 0, io.EOF
}

// TestIngestBodyLimits: an oversized Content-Length is refused from the
// header alone; an upload of unknown length is read as it arrives and
// held to the same cap.
func TestIngestBodyLimits(t *testing.T) {
	srv, st := newIngestServer(t, ingestConfig{SampleRate: 1})
	do := func(body io.Reader, length int64) int {
		req := httptest.NewRequest("POST", "/ingest", body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(failReader{t}, maxIngestBody+1); code != 413 {
		t.Errorf("oversized Content-Length: status %d, want 413", code)
	}
	wire := encodeEvents(t, []tracer.Entry{{Stamp: 1, TS: 1, TID: 1, Payload: []byte("chunked")}})
	if code := do(struct{ io.Reader }{bytes.NewReader(wire)}, -1); code != 202 {
		t.Errorf("unknown-length upload: status %d, want 202", code)
	}
	if code := do(struct{ io.Reader }{bytes.NewReader(make([]byte, maxIngestBody+8))}, -1); code != 413 {
		t.Errorf("oversized unknown-length upload: status %d, want 413", code)
	}
	if code := do(bytes.NewReader(wire[:len(wire)-8]), int64(len(wire))); code != 400 {
		t.Errorf("body shorter than Content-Length: status %d, want 400", code)
	}
	srv.ingest.Close()
	if st.Events() != 1 {
		t.Fatalf("store holds %d events, want the chunked upload's 1", st.Events())
	}
}

// TestBatchPoolBound: a batch grown past maxPooledBatch is dropped on
// release, not pooled.
func TestBatchPoolBound(t *testing.T) {
	big := &ingestBatch{body: make([]byte, 0, maxPooledBatch+1)}
	big.release()
	wide := &ingestBatch{es: make([]tracer.Entry, 0, maxPooledBatch/32)}
	wide.release()
	for i := 0; i < 8; i++ {
		if b := batchPool.Get().(*ingestBatch); b == big || b == wide {
			t.Fatalf("oversized batch (body cap %d, %d entries) came back from the pool", cap(b.body), cap(b.es))
		}
	}
}

// TestIngestAckBodiesMatchEncodingJSON: the hand-built 202 bodies are
// byte for byte what json.Encoder wrote for the maps they replaced.
func TestIngestAckBodiesMatchEncodingJSON(t *testing.T) {
	encoded := func(m map[string]any) string {
		var sb strings.Builder
		if err := json.NewEncoder(&sb).Encode(m); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	body := encodeEvents(t, clusterEvents(5, 1))

	single, _ := newIngestServer(t, ingestConfig{SampleRate: 1})
	if got, want := httpPost(t, single, "/ingest", body).Body.String(), encoded(map[string]any{"accepted": 5}); got != want {
		t.Errorf("single-store ack %q, want %q", got, want)
	}

	cluster := newClusterServer(t, 2, 2, "")
	for i, tenant := range []string{"", "acme", `a<b>&"c\d`, "café ", "ctl\x01\x7f"} {
		req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(encodeEvents(t, clusterEvents(5, uint64(100*i+1)))))
		req.Header[tenantHeader] = []string{tenant}
		rec := httptest.NewRecorder()
		cluster.ServeHTTP(rec, req)
		if tenant == "" {
			tenant = "default"
		}
		want := encoded(map[string]any{"tenant": tenant, "accepted": 5, "acked": 5,
			"throttled": 0, "gate_dropped": 0, "refused": 0})
		if rec.Code != 202 || rec.Body.String() != want {
			t.Errorf("cluster ack for tenant %q: %d %q, want %q", tenant, rec.Code, rec.Body.String(), want)
		}
	}
}
