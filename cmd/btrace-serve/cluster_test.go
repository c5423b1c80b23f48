package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/distributor"
	"btrace/internal/ingest"
	"btrace/internal/tracer"
)

// newClusterServer builds a server in cluster mode over a temp root.
func newClusterServer(t *testing.T, shards, rf int, overrides string) *server {
	t.Helper()
	ov, err := ingest.ParseOverrides(overrides)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := newClusterPipeline(clusterConfig{
		Dir:         t.TempDir(),
		Shards:      shards,
		Replication: rf,
		Ingest:      ingestConfig{SampleRate: 1, Overrides: ov},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	srv := newServer(nil, 0)
	srv.attachCluster(cp)
	return srv
}

func clusterEvents(n int, start uint64) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		stamp := start + uint64(i)
		es[i] = tracer.Entry{Stamp: stamp, TS: stamp * 1000, TID: uint32(50 + i%8),
			Category: 1, Level: 1, Payload: []byte(fmt.Sprintf("s%d", stamp))}
	}
	return es
}

// TestClusterIngestQueryEndToEnd: a tenant batch POSTed to /ingest is
// quorum-replicated across the shards; /store/query returns exactly one
// copy of each event; /store/segments and /ring break the fleet down
// per shard with the tenant attributed.
func TestClusterIngestQueryEndToEnd(t *testing.T) {
	srv := newClusterServer(t, 4, 2, "")
	body := encodeEvents(t, clusterEvents(60, 1))
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(string(body)))
	req.Header.Set(tenantHeader, "acme")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Tenant string
		Acked  int
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "acme" || resp.Acked != 60 {
		t.Fatalf("ingest response %+v, want 60 acked for acme", resp)
	}

	// RF=2 stores two copies; the merged query view returns one.
	qrec := httpGet(t, srv, "/store/query?format=csv&limit=1000")
	if qrec.Code != 200 {
		t.Fatalf("/store/query status %d: %s", qrec.Code, qrec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(qrec.Body.String()), "\n")
	if got := len(lines) - 1; got != 60 { // minus header row
		t.Fatalf("query returned %d rows, want 60", got)
	}

	// Per-shard breakdown with fleet totals: RF=2 means 120 raw copies.
	srec := httpGet(t, srv, "/store/segments")
	if srec.Code != 200 {
		t.Fatalf("/store/segments status %d", srec.Code)
	}
	var segs struct {
		Shards []struct {
			Name   string
			Events uint64
		}
		Events  uint64
		Tenants map[string]ingest.TenantStats
	}
	if err := json.NewDecoder(srec.Body).Decode(&segs); err != nil {
		t.Fatal(err)
	}
	if len(segs.Shards) != 4 {
		t.Fatalf("segments list %d shards, want 4", len(segs.Shards))
	}
	if segs.Events != 120 {
		t.Fatalf("fleet holds %d events, want 120 (60 x RF 2)", segs.Events)
	}
	if segs.Tenants["acme"].Seen != 60 {
		t.Fatalf("tenant attribution %+v, want acme seen 60", segs.Tenants)
	}

	// Probes: ready with the full ring healthy.
	if rrec := httpGet(t, srv, "/readyz"); rrec.Code != 200 {
		t.Fatalf("/readyz status %d: %s", rrec.Code, rrec.Body.String())
	}
}

// TestClusterRingTopology: GET /ring reports ownership summing to ~1;
// POST add/drain reshape the ring and keep the data readable.
func TestClusterRingTopology(t *testing.T) {
	srv := newClusterServer(t, 3, 2, "")
	body := encodeEvents(t, clusterEvents(40, 1))
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}

	var info struct {
		Replication int
		Shards      []struct {
			Name      string
			Healthy   bool
			Ownership float64
		}
	}
	grec := httpGet(t, srv, "/ring")
	if grec.Code != 200 {
		t.Fatalf("GET /ring status %d", grec.Code)
	}
	if err := json.NewDecoder(grec.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Replication != 2 || len(info.Shards) != 3 {
		t.Fatalf("ring info %+v", info)
	}
	var own float64
	for _, sh := range info.Shards {
		if !sh.Healthy {
			t.Fatalf("shard %s unhealthy at rest", sh.Name)
		}
		own += sh.Ownership
	}
	if own < 0.99 || own > 1.01 {
		t.Fatalf("ownership sums to %v, want ~1", own)
	}

	// Join a shard, then drain one of the originals.
	if prec := httpPost(t, srv, "/ring?action=add&shard=shard-77", nil); prec.Code != 200 {
		t.Fatalf("add shard: status %d: %s", prec.Code, prec.Body.String())
	}
	if prec := httpPost(t, srv, "/ring?action=add&shard=shard-77", nil); prec.Code != 409 {
		t.Fatalf("duplicate add: status %d, want 409", prec.Code)
	}
	if prec := httpPost(t, srv, "/ring?action=drain&shard=shard-01", nil); prec.Code != 200 {
		t.Fatalf("drain shard: status %d: %s", prec.Code, prec.Body.String())
	}
	if prec := httpPost(t, srv, "/ring?action=bogus&shard=shard-00", nil); prec.Code != 400 {
		t.Fatalf("bogus action: status %d, want 400", prec.Code)
	}
	if prec := httpPost(t, srv, "/ring?action=drain&shard=../evil", nil); prec.Code != 400 {
		t.Fatalf("bad shard name: status %d, want 400", prec.Code)
	}

	// All 40 events survive the reshape, exactly once each.
	qrec := httpGet(t, srv, "/store/query?format=csv&limit=1000")
	lines := strings.Split(strings.TrimSpace(qrec.Body.String()), "\n")
	if got := len(lines) - 1; got != 40 {
		t.Fatalf("query after reshape returned %d rows, want 40", got)
	}
}

// TestClusterTenantOverrideOverHTTP: the -tenant-overrides quota drops
// events for the named tenant and the response attributes them.
func TestClusterTenantOverrideOverHTTP(t *testing.T) {
	srv := newClusterServer(t, 2, 2, "limited=1:1")
	es := make([]tracer.Entry, 6)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: 1000, TID: 9, Category: 1, Level: 1}
	}
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(string(encodeEvents(t, es))))
	req.Header.Set(tenantHeader, "limited")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Acked     int
		Throttled int
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Acked != 1 || resp.Throttled != 5 {
		t.Fatalf("limited tenant: %+v, want 1 acked 5 throttled", resp)
	}
}

// TestClusterModeOffSurface: without -shards the cluster endpoints
// explain themselves instead of 404ing silently.
func TestClusterModeOffSurface(t *testing.T) {
	srv, _ := newIngestServer(t, ingestConfig{SampleRate: 1})
	rec := httpGet(t, srv, "/ring")
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "-shards") {
		t.Fatalf("/ring without cluster: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestClusterBTQLAggregate: a ?q= aggregate in cluster mode is folded on
// the shards, each counting the threads it is first owner of, and over
// the merged replica-deduplicated stream once a shard is down — RF
// copies must not inflate counts either way, and /metrics says which
// path answered and why.
func TestClusterBTQLAggregate(t *testing.T) {
	srv := newClusterServer(t, 4, 2, "")
	before := scrape(t, srv)
	body := encodeEvents(t, clusterEvents(60, 1))
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(string(body)))
	req.Header.Set(tenantHeader, "acme")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("/ingest status %d: %s", rec.Code, rec.Body.String())
	}

	qrec := httpGet(t, srv, "/store/query?q="+url.QueryEscape(`category == 1 | count()`))
	if qrec.Code != 200 {
		t.Fatalf("/store/query aggregate status %d: %s", qrec.Code, qrec.Body.String())
	}
	var resp struct {
		Result btql.Result `json:"result"`
	}
	if err := json.Unmarshal(qrec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid aggregate JSON: %v\n%s", err, qrec.Body.String())
	}
	if resp.Result.Kind != "count" || resp.Result.Events != 60 {
		t.Fatalf("cluster aggregate counted %d events, want 60 (RF must dedup): %+v",
			resp.Result.Events, resp.Result)
	}

	qrec = httpGet(t, srv, "/store/query?q="+url.QueryEscape(`tid == 52 | count()`))
	if qrec.Code != 200 {
		t.Fatalf("filtered aggregate status %d", qrec.Code)
	}
	if err := json.Unmarshal(qrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Events != 8 {
		t.Fatalf("tid == 52 counted %d events, want 8", resp.Result.Events)
	}

	srv.cluster.d.Shards()[0].(*distributor.LocalShard).Kill()
	qrec = httpGet(t, srv, "/store/query?q="+url.QueryEscape(`category == 1 | count()`))
	if err := json.Unmarshal(qrec.Body.Bytes(), &resp); err != nil || qrec.Code != 200 {
		t.Fatalf("aggregate with a shard down: status %d, %v", qrec.Code, err)
	}
	if resp.Result.Events != 60 {
		t.Fatalf("with a shard down the aggregate counted %d events, want 60", resp.Result.Events)
	}
	after := scrape(t, srv)
	for series, want := range map[string]float64{
		`btrace_distributor_aggregates_total{path="pushdown"}`:             2,
		`btrace_distributor_aggregates_total{path="merged"}`:               1,
		`btrace_distributor_aggregate_fallbacks_total{reason="unhealthy"}`: 1,
		`btrace_distributor_aggregate_fallbacks_total{reason="mismatch"}`:  0,
		`btrace_distributor_aggregate_fallbacks_total{reason="error"}`:     0,
	} {
		if _, ok := after[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		}
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s moved by %v, want %v", series, got, want)
		}
	}
}
