package main

import (
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"btrace/internal/live"
	"btrace/internal/obs"
	"btrace/internal/store"
)

// maxQueryEvents caps /store/query responses; larger extractions should
// page by stamp range.
const maxQueryEvents = 1 << 20

// defaultQueryEvents is the /store/query limit applied when the request
// does not pick one.
const defaultQueryEvents = 1 << 16

// server is the trace server's handler. It runs in one of two modes: a
// single store (store and ingest set) or a shard ring (cluster set).
// Both take ingest, answer queries and serve /live.
type server struct {
	mux *http.ServeMux
	// store is the durable trace store served by /store/*; nil in cluster
	// mode.
	store *store.Store
	// ingest is the single-store POST /ingest path (attachIngest wires
	// it after construction).
	ingest *ingestPipeline
	// cluster is the distributed ingest tier (-shards); nil in
	// single-store mode. When set it takes over /ingest, /store/query,
	// /store/segments and /readyz, and serves /ring.
	cluster *clusterPipeline
	// live fans admitted ingest batches out to /live subscribers
	// (attachLive wires it).
	live *live.Hub
}

func newServer(st *store.Store) *server {
	s := &server{
		mux:   http.NewServeMux(),
		store: st,
	}
	s.mux.HandleFunc("/store/segments", s.handleStoreSegments)
	s.mux.HandleFunc("/store/query", s.handleStoreQuery)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/ring", s.handleRing)
	s.mux.HandleFunc("/live", s.handleLive)
	// Probe surface: /healthz is pure liveness, /readyz folds in the
	// store write path and the overload controller (see ingest.go).
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// Self-observability surface: Prometheus text metrics over the
	// process-wide registry, plus the standard pprof profiles (explicit
	// routes — importing net/http/pprof for its DefaultServeMux side
	// effect would do nothing for this private mux).
	s.mux.Handle("/metrics", obs.Default().Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// attachIngest hands the server its single-store ingest pipeline.
// Separate from newServer so tests can hand it a hand-built one.
func (s *server) attachIngest(p *ingestPipeline) { s.ingest = p }

// attachCluster hands the server its distributed ingest tier; mutually
// exclusive with attachIngest (main wires one or the other).
func (s *server) attachCluster(p *clusterPipeline) { s.cluster = p }

// attachLive hands the server the hub its /live endpoint subscribes
// against; main hands the same hub to the ingest Admission, which
// publishes every admitted batch to it.
func (s *server) attachLive(h *live.Hub) { s.live = h }

// handleHealthz is the liveness probe: the process is up and serving.
// It deliberately checks nothing else — liveness failing triggers
// restarts, and restarting does not fix an overloaded store.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 while the server can do
// useful work, 503 with one reason per line while it cannot.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var reasons []string
	if s.cluster != nil {
		reasons = s.cluster.d.NotReadyReasons()
	} else {
		reasons = s.ingest.notReadyReasons()
	}
	if len(reasons) > 0 {
		http.Error(w, strings.Join(reasons, "\n"), http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}
