package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/ingest"
	"btrace/internal/obs"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// shardSegments is one shard's slice of the cluster /store/segments
// view.
type shardSegments struct {
	Name     string              `json:"name"`
	Dir      string              `json:"dir"`
	Healthy  bool                `json:"healthy"`
	Segments []store.SegmentInfo `json:"segments"`
	Tiers    []store.TierStat    `json:"tiers"`
	Bytes    int64               `json:"bytes"`
	Events   uint64              `json:"events"`
}

// handleClusterSegments is /store/segments in cluster mode: the same
// operator view, broken down per shard, with fleet totals and the
// admission's per-tenant attribution.
func (s *server) handleClusterSegments(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Shards  []shardSegments               `json:"shards"`
		Bytes   int64                         `json:"bytes"`
		Events  uint64                        `json:"events"`
		Tenants map[string]ingest.TenantStats `json:"tenants"`
	}{Tenants: s.cluster.d.TenantStats()}
	for _, sh := range s.cluster.d.Shards() {
		resp.Shards = append(resp.Shards, shardSegments{
			Name:     sh.Name(),
			Dir:      sh.Dir(),
			Healthy:  sh.Healthy(),
			Segments: sh.Segments(),
			Tiers:    sh.TierStats(),
			Bytes:    sh.Size(),
			Events:   sh.Events(),
		})
		resp.Bytes += sh.Size()
		resp.Events += sh.Events()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleStoreSegments reports the store's per-segment metadata as JSON:
// the operator's view of what survived on disk, segment by segment. In
// cluster mode the view is per shard.
func (s *server) handleStoreSegments(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil {
		s.handleClusterSegments(w, r)
		return
	}
	segs := s.store.Segments()
	resp := struct {
		Dir      string              `json:"dir"`
		Segments []store.SegmentInfo `json:"segments"`
		Tiers    []store.TierStat    `json:"tiers"`
		Bytes    int64               `json:"bytes"`
		Events   uint64              `json:"events"`
	}{Dir: s.store.Dir(), Segments: segs, Tiers: s.store.TierStats(),
		Bytes: s.store.Size(), Events: s.store.Events()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseStoreQuery builds a store.Query from request parameters: the
// filter parameters /live shares (btql.ParseParams: q and the field
// parameters, compiled into the query's one predicate) and limit. The
// aggregate stage of ?q=, if it has one, is returned alongside.
func parseStoreQuery(r *http.Request) (store.Query, *btql.AggSpec, error) {
	var q store.Query
	v := r.URL.Query()
	bq, err := btql.ParseParams(v)
	if err != nil {
		return q, nil, err
	}
	q.Pred = bq.Predicate()
	agg := bq.Agg
	limitArg := v.Get("limit")
	limit, err := strconv.ParseUint(limitArg, 10, 64)
	switch {
	case limitArg != "" && err != nil:
		return q, nil, fmt.Errorf("bad limit %q", limitArg)
	case agg != nil:
		// An aggregate is defined over every match; the stream the limit
		// guards is never materialized.
		q.Limit = 0
	case limitArg == "":
		q.Limit = defaultQueryEvents
	case limit == 0 || limit > maxQueryEvents:
		return q, nil, fmt.Errorf("limit must be in [1, %d]", maxQueryEvents)
	default:
		q.Limit = int(limit)
	}
	return q, agg, nil
}

// maxQueryWorkers caps the per-request ?workers= override: each worker
// pins a scan goroutine, and an unauthenticated query must not be able
// to demand an unbounded pool.
const maxQueryWorkers = 32

// requestWorkers resolves the scan-pool size for one /store/query:
// ?workers=N a pool of N (capped; 0 reads as one worker, per shard on a
// cluster), and an absent parameter is store.DefaultQueryWorkers.
func requestWorkers(r *http.Request) (int, error) {
	v := r.URL.Query().Get("workers")
	if v == "" {
		return store.DefaultQueryWorkers, nil
	}
	u, err := strconv.ParseUint(v, 10, 16)
	if err != nil || u > maxQueryWorkers {
		return 0, fmt.Errorf("bad workers %q (allowed: [0, %d])", v, maxQueryWorkers)
	}
	return int(u), nil
}

// queryAborts counts the /store/query responses cut off after their
// headers were out: an export that failed mid-stream (a corrupt
// segment, a client that went away).
var queryAborts = obs.NewCounter(1)

func init() {
	obs.Default().Register(func(e *obs.Emitter) {
		e.Counter("btrace_serve_query_aborts_total", "/store/query responses aborted mid-stream: the export failed after the headers were out", queryAborts.Load())
	})
}

// startedWriter notes whether the response has begun: until its first
// Write a failed export can still be answered with a status.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// handleStoreQuery streams the matching slice of the durable trace in
// the requested format (text, csv or chrome), through the same cursor
// contract every in-memory exporter uses. The format is the read's
// projection, fixed before the cursor is opened: csv and chrome print a
// payload's size and text its bytes (export.NeedsPayload), so only a
// text export makes the scan read, inflate or copy payloads. Every read
// is one stamp-ordered snapshot pass; ?workers= sizes its scan pool only,
// 0 meaning one worker — per shard on a cluster, whose shards' passes a
// merge deduplicates into one stream — so every value yields the
// identical stream (btrace-vulture continuously cross-checks that).
//
// An export that fails once the response has begun aborts the
// connection instead of returning: a clean end of the body would tell
// the client the truncated stream is the whole answer.
func (s *server) handleStoreQuery(w http.ResponseWriter, r *http.Request) {
	q, agg, err := parseStoreQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	workers, err := requestWorkers(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if agg != nil {
		s.serveStoreAggregate(w, r, q, agg)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	needs, ok := export.NeedsPayload(format)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown format %q (text|csv|chrome)", format), http.StatusBadRequest)
		return
	}
	q.LengthsOnly = !needs
	var cur tracer.Cursor
	if s.cluster != nil {
		// Cluster mode: fan out to every healthy shard and k-way-merge
		// the replicas back to one stamp-ordered copy each.
		if cur, err = s.cluster.d.Query(q, workers); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	} else {
		cur = s.store.QueryParallel(q, max(workers, 1))
	}
	defer cur.Close()
	out := &startedWriter{ResponseWriter: w}
	batch := make([]tracer.Entry, 1024)
	switch format {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _, err = export.TextCursor(out, cur, batch)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_, _, err = export.CSVCursor(out, cur, batch)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="btrace-store-query.json"`)
		_, _, err = export.ChromeTraceCursor(out, cur, batch)
	}
	switch {
	case err == nil:
	case !out.started:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		queryAborts.Inc()
		panic(http.ErrAbortHandler)
	}
}

// serveStoreAggregate answers a BTQL query whose pipeline ends in an
// aggregate stage: the result is one JSON document, not an event
// stream. Single-node execution is columnar (cold v2 blocks feed the
// aggregators without materializing events). Cluster execution is the
// same header-only pass on every shard, one span buffer in all: each
// shard counts the threads it is first owner of and only the partial
// answers are added up. When the shards' copies do not verify (a shard
// down, a replica behind, a join in progress) the distributor folds
// the merged replica-deduplicated cursor instead, which adds one
// 512-entry batch per shard to what each shard's snapshot scan holds
// (up to three spans per segment in the merge, a whole segment where it
// is unordered); btrace_distributor_aggregates_total{path=…} and
// …_aggregate_fallbacks_total{reason=…} say which and why.
func (s *server) serveStoreAggregate(w http.ResponseWriter, r *http.Request, q store.Query, agg *btql.AggSpec) {
	specs := []btql.AggSpec{*agg}
	var (
		results []btql.Result
		missed  uint64
		err     error
	)
	if s.cluster != nil {
		results, missed, err = s.cluster.d.Aggregate(q, specs)
	} else {
		results, missed, err = s.store.Aggregate(q, specs)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := struct {
		Query  string      `json:"query"`
		Missed uint64      `json:"missed,omitempty"`
		Result btql.Result `json:"result"`
	}{Query: r.URL.Query().Get("q"), Missed: missed, Result: results[0]}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
