package main

import (
	"bytes"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"btrace/internal/analysis"
	"btrace/internal/experiments"
	"btrace/internal/export"
	"btrace/internal/live"
	"btrace/internal/obs"
	"btrace/internal/replay"
	"btrace/internal/store"
	"btrace/internal/tracer"
	"btrace/internal/workload"

	_ "btrace/internal/bbq"
	_ "btrace/internal/core"
	_ "btrace/internal/ftrace"
	_ "btrace/internal/lttng"
	_ "btrace/internal/vtrace"
)

// experimentNames lists the dashboard's experiments in display order.
var experimentNames = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"table1", "fig10", "table2", "fig11", "memreq",
}

// maxRequestScale caps the ?scale= a request may ask for: replays and
// experiments are CPU-bound, and an unauthenticated query must not be
// able to demand a full-volume run. (The operator's -scale flag is
// validated separately in main — it may go up to 1, but never outside
// (0, 1].)
const maxRequestScale = 0.25

// maxQueryEvents caps /store/query responses; larger extractions should
// page by stamp range.
const maxQueryEvents = 1 << 20

// defaultQueryEvents is the /store/query limit applied when the request
// does not pick one.
const defaultQueryEvents = 1 << 16

// maxConcurrentRuns bounds simultaneous experiment/replay executions;
// excess requests are rejected with 503 instead of queuing without bound.
const maxConcurrentRuns = 4

// server is the dashboard handler.
type server struct {
	mux          *http.ServeMux
	defaultScale float64
	tmpl         *template.Template
	// runs is the semaphore limiting concurrent heavy computations.
	runs chan struct{}
	// store is the durable trace store served by /store/*; nil when the
	// server runs without one.
	store *store.Store
	// queryWorkers sizes the scan pool of a /store/query that names no
	// ?workers=, in [0, maxQueryWorkers]; zero means one worker.
	queryWorkers int
	// ingest is the POST /ingest delivery pipeline; nil when the server
	// runs without a store (attachIngest wires it after construction).
	ingest *ingestPipeline
	// cluster is the distributed ingest tier (-shards); nil in
	// single-store and dashboard-only deployments. When set it takes over
	// /ingest, /store/query, /store/segments and /readyz, and serves
	// /ring.
	cluster *clusterPipeline
	// live fans admitted ingest batches out to /live subscribers; nil in
	// dashboard-only deployments (attachLive wires it).
	live *live.Hub
}

func newServer(defaultScale float64, st *store.Store, queryWorkers int) (*server, error) {
	if defaultScale <= 0 || defaultScale > 1 {
		return nil, fmt.Errorf("scale %v out of (0,1]", defaultScale)
	}
	s := &server{
		mux:          http.NewServeMux(),
		defaultScale: defaultScale,
		tmpl:         template.Must(template.New("page").Parse(pageTemplate)),
		runs:         make(chan struct{}, maxConcurrentRuns),
		store:        st,
		queryWorkers: queryWorkers,
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/experiment/", s.handleExperiment)
	s.mux.HandleFunc("/replay", s.handleReplay)
	s.mux.HandleFunc("/replay.json", s.handleReplayJSON)
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
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// attachIngest hands the server its ingest pipeline. Separate from
// newServer so dashboard-only deployments (and most tests) need not
// build one.
func (s *server) attachIngest(p *ingestPipeline) { s.ingest = p }

// attachCluster hands the server its distributed ingest tier; mutually
// exclusive with attachIngest (main wires one or the other).
func (s *server) attachCluster(p *clusterPipeline) { s.cluster = p }

// attachLive hands the server the hub its /live endpoint subscribes
// against; main wires the same hub into the ingest gate's Admitted hook.
func (s *server) attachLive(h *live.Hub) { s.live = h }

// acquireRun takes a slot in the computation semaphore, answering 503
// (with Retry-After) and returning false when the server is saturated.
// The caller must invoke the returned release func when done.
func (s *server) acquireRun(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.runs <- struct{}{}:
		return func() { <-s.runs }, true
	default:
		w.Header().Set("Retry-After", "5")
		http.Error(w, fmt.Sprintf("busy: %d runs already in flight", maxConcurrentRuns),
			http.StatusServiceUnavailable)
		return nil, false
	}
}

// requestScale parses and validates a ?scale= value from a request.
func requestScale(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f <= 0 || f > maxRequestScale {
		return 0, fmt.Errorf("bad scale %q (allowed: (0, %v])", v, maxRequestScale)
	}
	return f, nil
}

// page is the template payload.
type page struct {
	Title       string
	Experiments []string
	Tracers     []string
	Workloads   []string
	Body        string // preformatted ASCII output
	Elapsed     string
	Links       []link
}

type link struct{ Href, Label string }

func (s *server) render(w http.ResponseWriter, p page) {
	p.Experiments = experimentNames
	p.Tracers = tracer.Names()
	p.Workloads = workload.Names()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.Execute(w, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(w, page{
		Title: "BTrace benchmark dashboard",
		Body: "Pick an experiment above to regenerate the paper's table/figure,\n" +
			"or run an ad-hoc replay: /replay?tracer=btrace&workload=Video-1\n\n" +
			"Defaults: scale=" + strconv.FormatFloat(s.defaultScale, 'f', -1, 64) +
			" (override with ?scale=), budget=12MiB scaled with volume.",
	})
}

// options extracts experiment options from the query string.
func (s *server) options(r *http.Request) (experiments.Options, error) {
	o := experiments.Defaults()
	o.RateScale = s.defaultScale
	q := r.URL.Query()
	if v := q.Get("scale"); v != "" {
		f, err := requestScale(v)
		if err != nil {
			return o, err
		}
		o.RateScale = f
	}
	if v := q.Get("workloads"); v != "" {
		o.Workloads = strings.Split(v, ",")
	}
	if v := q.Get("tracers"); v != "" {
		o.Tracers = strings.Split(v, ",")
	}
	return o, nil
}

func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/experiment/")
	opt, err := s.options(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.acquireRun(w)
	if !ok {
		return
	}
	defer release()
	var res interface{ Render(io.Writer) }
	started := time.Now()
	switch name {
	case "fig1":
		res, err = experiments.Fig1(opt)
	case "fig2":
		res, err = experiments.Fig2(opt)
	case "fig3":
		res, err = experiments.Fig3(opt)
	case "fig4":
		res, err = experiments.Fig4(opt)
	case "fig5":
		res, err = experiments.Fig5(opt)
	case "fig6":
		res, err = experiments.Fig6(opt)
	case "fig10":
		res, err = experiments.Fig10(opt)
	case "fig11":
		res, err = experiments.Fig11(opt)
	case "table1":
		res, err = experiments.Table1(opt)
	case "table2":
		res, err = experiments.Table2(opt)
	case "memreq":
		res, err = experiments.MemoryRequirement(opt)
	default:
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var buf bytes.Buffer
	res.Render(&buf)
	s.render(w, page{
		Title:   name,
		Body:    buf.String(),
		Elapsed: time.Since(started).Round(time.Millisecond).String(),
	})
}

// runReplay executes the query's replay and returns the tracer (for
// readout), result and analysis.
func (s *server) runReplay(r *http.Request) (tracer.Tracer, *replay.Result, analysis.Retention, error) {
	var zero analysis.Retention
	q := r.URL.Query()
	tn := q.Get("tracer")
	if tn == "" {
		tn = "btrace"
	}
	wn := q.Get("workload")
	if wn == "" {
		wn = "eShop-1"
	}
	scale := s.defaultScale
	if v := q.Get("scale"); v != "" {
		f, err := requestScale(v)
		if err != nil {
			return nil, nil, zero, err
		}
		scale = f
	}
	w, err := workload.ByName(wn)
	if err != nil {
		return nil, nil, zero, err
	}
	budget := int(12 << 20 * scale)
	if budget < 12*4*4096 {
		budget = 12 * 4 * 4096
	}
	tr, err := tracer.New(tn, budget, 12, w.ThreadsTotal*12)
	if err != nil {
		return nil, nil, zero, err
	}
	res, err := replay.Run(replay.Config{
		Tracer: tr, Workload: w, Mode: replay.ThreadLevel,
		RateScale: scale, PreemptProb: 0.002, MeasureLatency: true,
	})
	if err != nil {
		return nil, nil, zero, err
	}
	retained, err := replay.RetainedStamps(tr)
	if err != nil {
		return nil, nil, zero, err
	}
	ret, err := analysis.Analyze(res.Truth, retained, budget)
	if err != nil {
		return nil, nil, zero, err
	}
	return tr, res, ret, nil
}

func (s *server) handleReplay(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquireRun(w)
	if !ok {
		return
	}
	defer release()
	started := time.Now()
	_, res, ret, err := s.runReplay(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lat := analysis.Latency(res.LatenciesNs)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "written:          %d events (%d dropped by policy)\n", res.Written, res.Dropped)
	fmt.Fprintf(&buf, "retained:         %d events\n", ret.Retained)
	fmt.Fprintf(&buf, "latest fragment:  %.2f MB (%d entries)\n", float64(ret.LatestFragmentBytes)/1e6, ret.LatestFragmentEntries)
	fmt.Fprintf(&buf, "fragments:        %d\n", ret.Fragments)
	fmt.Fprintf(&buf, "loss rate:        %.2f%%\n", ret.LossRate*100)
	fmt.Fprintf(&buf, "effectivity:      %.2f%%\n", ret.EffectivityRatio*100)
	fmt.Fprintf(&buf, "latency geo-mean: %.0f ns (p99 %d ns)\n", lat.GeoMean, lat.P99)
	s.render(w, page{
		Title:   "replay " + r.URL.RawQuery,
		Body:    buf.String(),
		Elapsed: time.Since(started).Round(time.Millisecond).String(),
		Links:   []link{{Href: "/replay.json?" + r.URL.RawQuery, Label: "download Chrome trace JSON"}},
	})
}

func (s *server) handleReplayJSON(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquireRun(w)
	if !ok {
		return
	}
	defer release()
	tr, _, _, err := s.runReplay(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="btrace-replay.json"`)
	// Stream through a cursor when the tracer supports it: the response is
	// produced in bounded batches instead of materializing the readout.
	if cs, ok := tr.(tracer.CursorSource); ok {
		cur := cs.NewCursor()
		defer cur.Close()
		batch := make([]tracer.Entry, 1024)
		if _, _, err := export.ChromeTraceCursor(w, cur, batch); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	es, err := tr.ReadAll()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := export.ChromeTrace(w, es); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

const pageTemplate = `<!DOCTYPE html>
<html><head><title>{{.Title}} — btrace</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; max-width: 110ch; }
nav a { margin-right: .8rem; }
pre { background: #f6f6f6; padding: 1rem; overflow-x: auto; font-size: 12px; line-height: 1.35; }
.meta { color: #666; font-size: .9rem; }
</style></head>
<body>
<h1>{{.Title}}</h1>
<nav>{{range .Experiments}}<a href="/experiment/{{.}}">{{.}}</a>{{end}}</nav>
{{if .Elapsed}}<p class="meta">computed in {{.Elapsed}}</p>{{end}}
<pre>{{.Body}}</pre>
{{range .Links}}<p><a href="{{.Href}}">{{.Label}}</a></p>{{end}}
<p class="meta">tracers: {{range .Tracers}}{{.}} {{end}}| workloads: {{range .Workloads}}{{.}} {{end}}</p>
</body></html>`

// handleHealthz is the liveness probe: the process is up and serving.
// It deliberately checks nothing else — liveness failing triggers
// restarts, and restarting does not fix an overloaded store.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 while the server can do
// useful work, 503 with one reason per line while it cannot. Without an
// ingest pipeline the server is a read-only dashboard and is always
// ready once it is serving.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cluster != nil {
		if reasons := s.cluster.d.NotReadyReasons(); len(reasons) > 0 {
			http.Error(w, strings.Join(reasons, "\n"), http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
		return
	}
	if s.ingest == nil {
		io.WriteString(w, "ok (dashboard only, no ingest pipeline)\n")
		return
	}
	if reasons := s.ingest.notReadyReasons(); len(reasons) > 0 {
		http.Error(w, strings.Join(reasons, "\n"), http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}
