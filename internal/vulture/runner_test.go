package vulture

import (
	"context"
	"encoding/csv"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"btrace/internal/btql"
	"btrace/internal/live"
	"btrace/internal/tracer"
)

// stubStore is a minimal single-node btrace-serve stand-in: /readyz,
// /ingest (async ack like the real thing, but applied synchronously),
// /store/query in CSV, and /live over a real hub. mutate lets tests
// corrupt the read path to prove the vulture notices.
type stubStore struct {
	mu     sync.Mutex
	events map[uint64]tracer.Entry
	hub    *live.Hub
	// mutate rewrites the sorted stamp list a query would return.
	mutate func([]uint64) []uint64
	// queries is the ?q= of every /store/query served.
	queries []string
}

func newStub(t *testing.T) (*stubStore, *httptest.Server) {
	t.Helper()
	st := &stubStore{events: make(map[uint64]tracer.Entry), hub: live.NewHub(live.Config{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/ingest", st.handleIngest)
	mux.HandleFunc("/store/query", st.handleQuery)
	mux.HandleFunc("/live", st.handleLive)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return st, ts
}

func (st *stubStore) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	recs, _ := tracer.DecodeAll(body)
	var es []tracer.Entry
	st.mu.Lock()
	for _, rec := range recs {
		if rec.Kind == tracer.KindEvent {
			st.events[rec.Event.Stamp] = rec.Event
			es = append(es, rec.Event)
		}
	}
	st.mu.Unlock()
	st.hub.Publish("", es)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%d}`, len(es))
}

func (st *stubStore) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The real thing's parameter parser, and its one predicate — pushed
	// into a scan there, run over a map here.
	bq, err := btql.ParseParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pred := bq.Predicate()
	st.mu.Lock()
	st.queries = append(st.queries, r.URL.Query().Get("q"))
	var stamps []uint64
	for s, e := range st.events {
		if pred.Match(&e) {
			stamps = append(stamps, s)
		}
	}
	st.mu.Unlock()
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	if st.mutate != nil {
		stamps = st.mutate(stamps)
	}
	if bq.Agg != nil {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"query":%q,"result":{"kind":"count","events":%d}}`,
			r.URL.Query().Get("q"), len(stamps))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	cw.Write([]string{"stamp", "ts_ns", "core", "tid", "category", "level", "payload_bytes"})
	for _, s := range stamps {
		cw.Write([]string{strconv.FormatUint(s, 10), "0", "0", "0", "1", "1", "8"})
	}
	cw.Flush()
}

func (st *stubStore) handleLive(w http.ResponseWriter, r *http.Request) {
	q, err := btql.ParseParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sub, err := st.hub.Subscribe(live.Filter{Pred: q.Predicate()})
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	batch := make([]tracer.Entry, 64)
	for {
		n, missed, err := sub.Next(batch)
		if missed > 0 {
			w.Write(live.AppendMissed(nil, missed))
		}
		for i := 0; i < n; i++ {
			live.EncodeFrame(w, &batch[i])
		}
		if err != nil {
			return
		}
		fl.Flush()
		if n == 0 && missed == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-sub.Notify():
			}
		}
	}
}

// quickCfg keeps test soaks to a few hundred milliseconds.
func quickCfg(url string) RunnerConfig {
	return RunnerConfig{
		BaseURL:  url,
		Writers:  2,
		Batch:    8,
		Interval: 10 * time.Millisecond,
		Settle:   10 * time.Millisecond,
		Duration: 150 * time.Millisecond,
		BTQL:     true,
	}
}

// TestRunnerCleanServer: a faithful store yields a clean report on
// every surface, with the strict live accounting balancing exactly.
func TestRunnerCleanServer(t *testing.T) {
	st, ts := newStub(t)
	cfg := quickCfg(ts.URL)
	cfg.Live = true
	cfg.StrictLive = true
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean server failed verification: %v", rep.Violations())
	}
	if rep.EventsAcked == 0 || rep.BatchesSent == 0 {
		t.Fatalf("nothing written: %+v", rep)
	}
	surfaces := rep.Surfaces()
	for _, name := range []string{"one-worker", "parallel", "btql", "btql-count", "live"} {
		if surfaces[name].Events == 0 {
			t.Fatalf("surface %s never verified anything: %+v", name, surfaces)
		}
	}
	if rep.LiveDelivered+rep.LiveMissed < rep.EventsAcked {
		t.Fatalf("live accounting short: delivered %d + missed %d < acked %d",
			rep.LiveDelivered, rep.LiveMissed, rep.EventsAcked)
	}
	// The BTQL reads spell the writer's thread both ways.
	var eq, in bool
	st.mu.Lock()
	for _, q := range st.queries {
		eq = eq || strings.Contains(q, "tid == ")
		in = in || strings.Contains(q, "tid in (")
	}
	st.mu.Unlock()
	if !eq || !in {
		t.Fatalf("BTQL reads sent tid == (%v) and tid in (%v), want both", eq, in)
	}
}

// TestRunnerDetectsLoss: a store that swallows every 5th stamp must
// fail the run with loss on the range surfaces.
func TestRunnerDetectsLoss(t *testing.T) {
	st, ts := newStub(t)
	st.mutate = func(stamps []uint64) []uint64 {
		out := stamps[:0]
		for _, s := range stamps {
			if s%5 != 0 {
				out = append(out, s)
			}
		}
		return out
	}
	rep, err := Run(context.Background(), quickCfg(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("lossy store passed verification")
	}
	if s := rep.Surfaces()["one-worker"]; s.Loss == 0 {
		t.Fatalf("loss not attributed: %+v", rep.Surfaces())
	}
}

// TestRunnerDetectsDuplication: a store that returns one stamp twice
// must fail with duplicates (and the inversion the echo causes).
func TestRunnerDetectsDuplication(t *testing.T) {
	st, ts := newStub(t)
	st.mutate = func(stamps []uint64) []uint64 {
		if len(stamps) > 2 {
			stamps = append(stamps, stamps[1])
		}
		return stamps
	}
	rep, err := Run(context.Background(), quickCfg(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("duplicating store passed verification")
	}
	if s := rep.Surfaces()["parallel"]; s.Duplicates == 0 {
		t.Fatalf("duplicates not attributed: %+v", rep.Surfaces())
	}
}

// TestRunnerUnreachableServer: setup failure, not a hang.
func TestRunnerUnreachableServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	cfg := quickCfg("http://127.0.0.1:1") // reserved port, nothing listens
	_, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("expected setup error against dead server")
	}
}
