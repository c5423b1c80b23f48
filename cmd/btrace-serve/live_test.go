package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"btrace/internal/live"
	"btrace/internal/tracer"
)

// liveServer builds a single-store ingest server with a live hub wired
// through the Admission's live publish, served over a real listener (SSE
// needs a streaming connection, which ResponseRecorder cannot provide).
func liveServer(t *testing.T, hubCfg live.Config) (*httptest.Server, *live.Hub) {
	t.Helper()
	hub := live.NewHub(hubCfg)
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1, Hub: hub})
	srv.attachLive(hub)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, hub
}

// openLive opens a /live stream. handleLive flushes the 200 only after
// Hub.Subscribe returned, so the response arriving is the subscription
// barrier: no waiting, the subscriber is attached.
func openLive(t *testing.T, hub *live.Hub, url, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/live status %d", resp.StatusCode)
	}
	if n := hub.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers once /live answered, want 1", n)
	}
	return resp
}

// readLiveStamps collects the next want trace events off an SSE stream.
func readLiveStamps(t *testing.T, resp *http.Response, want int) []tracer.Entry {
	t.Helper()
	sr := live.NewStreamReader(resp.Body)
	var got []tracer.Entry
	for len(got) < want {
		event, data, err := sr.Next()
		if err != nil {
			t.Fatalf("stream ended after %d/%d events: %v", len(got), want, err)
		}
		switch event {
		case live.EventTrace:
			e, err := live.DecodeFrame(data)
			if err != nil {
				t.Fatalf("bad frame %q: %v", data, err)
			}
			got = append(got, e)
		case live.EventMissed:
			t.Fatalf("unexpected missed event on a fast subscriber: %q", data)
		}
	}
	return got
}

// TestLiveTailEndToEnd: events POSTed to /ingest arrive on a matching
// /live subscription in stamp order, filtered server-side, with
// payloads intact — the full admitted-batch fan-out path through the
// gate hook, the hub, and the SSE encoder.
func TestLiveTailEndToEnd(t *testing.T) {
	ts, hub := liveServer(t, live.Config{})
	writes := func() float64 {
		_, body := get(t, ts.URL+"/metrics")
		return parseProm(t, body)["btrace_live_sse_writes_total"]
	}

	resp := openLive(t, hub, ts.URL+"/live?tids=7", "")
	before := writes()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Half the events match the tids filter, half must be screened out.
	var es []tracer.Entry
	for i := 1; i <= 20; i++ {
		tid := uint32(7)
		if i%2 == 0 {
			tid = 9
		}
		es = append(es, tracer.Entry{
			Stamp: uint64(i), TS: uint64(1000 + i), TID: tid,
			Category: 1, Level: 2, Payload: []byte{byte(i), 0xEE},
		})
	}
	post, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(encodeEvents(t, es)))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusAccepted {
		t.Fatalf("/ingest status %d", post.StatusCode)
	}

	got := readLiveStamps(t, resp, 10)
	for i, e := range got {
		wantStamp := uint64(2*i + 1)
		if e.Stamp != wantStamp || e.TID != 7 {
			t.Fatalf("frame %d: stamp %d tid %d, want stamp %d tid 7", i, e.Stamp, e.TID, wantStamp)
		}
		if len(e.Payload) != 2 || e.Payload[0] != byte(wantStamp) || e.Payload[1] != 0xEE {
			t.Fatalf("frame %d payload %v", i, e.Payload)
		}
	}
	// One admitted batch is one drain of the ring, and a drain is one
	// write to the socket however many frames it carries.
	if n := writes() - before; n != 1 {
		t.Fatalf("%d frames went out in %v socket writes, want 1", len(got), n)
	}
}

// TestLiveTailBTQL: /live takes the filter parameters /store/query
// takes — q= (the tail has the payload, so payload matches work live)
// and the stamp window beside it — not only the field lists.
func TestLiveTailBTQL(t *testing.T) {
	ts, hub := liveServer(t, live.Config{})
	matched := func() float64 {
		_, body := get(t, ts.URL+"/metrics")
		return parseProm(t, body)["btrace_live_matched_total"]
	}
	before := matched()
	resp := openLive(t, hub, ts.URL+"/live?min_stamp=5&max_stamp=12&q="+
		url.QueryEscape(`payload contains "gc" && tid in (7, 8)`), "")
	var es []tracer.Entry
	for i := 1; i <= 20; i++ {
		e := tracer.Entry{Stamp: uint64(i), TS: uint64(1000 + i), TID: uint32(7 + i%2), Category: 1, Level: 2, Payload: []byte("alloc")}
		if i%2 == 1 {
			e.Payload = []byte("gc pause")
		}
		if i == 5 {
			e.TID = 9
		}
		es = append(es, e)
	}
	post, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(encodeEvents(t, es)))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusAccepted {
		t.Fatalf("/ingest status %d", post.StatusCode)
	}
	// Odd stamps in [5, 12] say "gc"; of 5, 7, 9, 11, stamp 5 is on tid 9.
	got := readLiveStamps(t, resp, 3)
	for i, want := range []uint64{7, 9, 11} {
		if got[i].Stamp != want || !bytes.Contains(got[i].Payload, []byte("gc")) {
			t.Fatalf("frame %d: stamp %d payload %q, want stamp %d", i, got[i].Stamp, got[i].Payload, want)
		}
	}
	if n := matched() - before; n != 3 {
		t.Fatalf("the filter matched %v of 20 events, want 3", n)
	}
}

// TestLiveTenantScoping: a subscription carrying X-Btrace-Tenant sees
// only that tenant's admitted events; one without the header sees all.
func TestLiveTenantScoping(t *testing.T) {
	ts, hub := liveServer(t, live.Config{})

	resp := openLive(t, hub, ts.URL+"/live", "beta")

	for i, tenant := range []string{"alpha", "beta"} {
		es := []tracer.Entry{{Stamp: uint64(100 + i), TS: 5, TID: 1, Level: 1}}
		req, _ := http.NewRequest("POST", ts.URL+"/ingest",
			bytes.NewReader(encodeEvents(t, es)))
		req.Header.Set(tenantHeader, tenant)
		pr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest as %s: status %d", tenant, pr.StatusCode)
		}
	}

	got := readLiveStamps(t, resp, 1)
	if got[0].Stamp != 101 {
		t.Fatalf("beta subscriber saw stamp %d, want only beta's 101", got[0].Stamp)
	}
}

// TestLiveInterleavedClients: batches from independent clients arrive
// at admission in arbitrary global stamp order (client B's
// higher-stamped batch before client A's). The admission's verifier runs
// in unordered mode, so both batches must reach a live subscriber — a
// regression here means interleaved traffic is quarantined around the
// gate: persisted but invisible to live tail, sampling and rate limits.
func TestLiveInterleavedClients(t *testing.T) {
	ts, hub := liveServer(t, live.Config{})

	resp := openLive(t, hub, ts.URL+"/live", "")

	batches := [][]tracer.Entry{
		{{Stamp: 100, TS: 10, TID: 9, Category: 1, Level: 1},
			{Stamp: 101, TS: 11, TID: 9, Category: 1, Level: 1}},
		{{Stamp: 1, TS: 1, TID: 7, Category: 1, Level: 1},
			{Stamp: 2, TS: 2, TID: 7, Category: 1, Level: 1}},
	}
	for _, es := range batches {
		post, err := http.Post(ts.URL+"/ingest", "application/octet-stream",
			bytes.NewReader(encodeEvents(t, es)))
		if err != nil {
			t.Fatal(err)
		}
		post.Body.Close()
		if post.StatusCode != http.StatusAccepted {
			t.Fatalf("/ingest status %d", post.StatusCode)
		}
	}

	got := readLiveStamps(t, resp, 4)
	want := []uint64{100, 101, 1, 2}
	for i, e := range got {
		if e.Stamp != want[i] {
			t.Fatalf("frame %d: stamp %d, want %d (got %+v)", i, e.Stamp, want[i], got)
		}
	}
}

// TestLiveRequestValidation covers the non-streaming error paths, which
// return immediately and so work against a plain recorder.
func TestLiveRequestValidation(t *testing.T) {
	hub := live.NewHub(live.Config{MaxSubscribers: 1})
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1, Hub: hub})
	srv.attachLive(hub)

	if rec := httpGet(t, srv, "/live?min_ts=5&max_ts=1"); rec.Code != http.StatusBadRequest {
		t.Errorf("inverted window: status %d, want 400", rec.Code)
	}
	if rec := httpGet(t, srv, "/live?tids=notanumber"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad tids: status %d, want 400", rec.Code)
	}
	if rec := httpGet(t, srv, "/live?min_stamp=5&max_stamp=1"); rec.Code != http.StatusBadRequest {
		t.Errorf("inverted stamp window: status %d, want 400", rec.Code)
	}
	if rec := httpGet(t, srv, "/live?q="+url.QueryEscape("category ==")); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed q: status %d, want 400", rec.Code)
	}
	// A tail is a stream of events: there is nothing to aggregate over.
	if rec := httpGet(t, srv, "/live?q="+url.QueryEscape("category == 2 | count()")); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "aggregate") {
		t.Errorf("q with an aggregate stage: status %d body %q, want a 400 that says why", rec.Code, rec.Body.String())
	}
	if rec := httpPost(t, srv, "/live", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /live: status %d, want 405", rec.Code)
	}

	// Saturate the hub's one subscriber slot directly; the endpoint must
	// answer 503 with Retry-After rather than hanging.
	sub, err := hub.Subscribe(live.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rec := httpGet(t, srv, "/live")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("over cap: status %d Retry-After %q, want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestStoreQueryWorkersParam: ?workers= sizes /store/query's scan pool
// — 0 is one worker — and every size returns the same stream;
// out-of-range values are rejected.
func TestStoreQueryWorkersParam(t *testing.T) {
	ts, _ := storeServer(t, 50)
	var bodies []string
	for _, q := range []string{"workers=0", "workers=4", ""} {
		url := ts.URL + "/store/query?format=csv"
		if q != "" {
			url += "&" + q
		}
		code, body := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d:\n%s", q, code, body)
		}
		if n := strings.Count(body, "\n"); n != 51 { // header + 50 rows
			t.Fatalf("%s: %d lines, want 51", q, n)
		}
		bodies = append(bodies, body)
	}
	if bodies[0] != bodies[1] || bodies[1] != bodies[2] {
		t.Fatal("one-worker, parallel and default reads disagree")
	}
	if code, _ := get(t, ts.URL+"/store/query?workers=99"); code != http.StatusBadRequest {
		t.Fatalf("workers=99: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/store/query?workers=-1"); code != http.StatusBadRequest {
		t.Fatalf("workers=-1: status %d, want 400", code)
	}
}
