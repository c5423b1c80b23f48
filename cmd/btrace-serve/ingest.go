package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"btrace/internal/ingest"
	"btrace/internal/live"
	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/store"
)

// ingestConfig carries the admission flags into the pipeline.
type ingestConfig struct {
	// SampleRate is the head-sampling keep-rate floor (-sample-rate).
	SampleRate float64
	// RateLimit is the per-category token refill rate in events per
	// second of virtual time, with a burst of twice that; 0 disables the
	// bucket (-rate-limit).
	RateLimit float64
	// Shed enables the tiered load-shedding controller (-shed). When
	// false the gate still samples and rate-limits, but never escalates
	// past TierNone.
	Shed bool
	// Overrides are the parsed per-tenant quota overrides
	// (-tenant-overrides).
	Overrides map[string]ingest.TenantLimit
	// Hub, when set, receives every admitted batch from the Admission —
	// the /live fan-out. Both the single-store pipeline and the cluster
	// distributor are built from an ingestConfig, so one field covers
	// both ingest paths.
	Hub *live.Hub
}

// tenantHeader names the request header carrying the tenant on POST
// /ingest; absent or empty falls back to the default tenant.
const tenantHeader = "X-Btrace-Tenant"

// gateConfig maps the overload-control flags onto the gate
// configuration; shared by the single-store pipeline and the cluster
// distributor so both paths shed identically.
func (cfg ingestConfig) gateConfig() (overload.Config, error) {
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		return overload.Config{}, fmt.Errorf("sample rate %v out of (0, 1]", cfg.SampleRate)
	}
	gcfg := overload.Config{
		MinSampleRate: cfg.SampleRate,
		RatePerSec:    cfg.RateLimit,
	}
	if !cfg.Shed {
		// A score can never exceed 1, so an engage threshold above it
		// pins the controller at TierNone while sampling and rate limits
		// keep working.
		gcfg.EngagePressure = 2
	}
	return gcfg, nil
}

// ingestPipeline owns the single-store POST /ingest path. It has no
// queue and no goroutine of its own: the handler's goroutine evaluates
// the gate, admits the batch, answers 202, appends what it admitted once
// and releases the batch (serve). A 202 means admitted, and the append
// follows on the same goroutine; the cluster path (cluster.go) acks a
// quorum instead. The Admission locks itself and the store serialises
// its appends, so concurrent requests need nothing more.
type ingestPipeline struct {
	adm *ingest.Admission
	st  *store.Store
	// sink is st; the failure-path tests substitute a flaky one. Its
	// WriteErr is /readyz's and btrace_ingest_store_failed's.
	sink ingest.Sink
	// stopGate ends the periodic gate evaluations.
	stopGate func()

	// Published as btrace_ingest_*: batches admitted, the batches (and
	// their events) the store refused, and events a tenant quota dropped.
	batches        atomic.Uint64
	droppedBatches atomic.Uint64
	droppedEvents  atomic.Uint64
	throttled      atomic.Uint64
	obsID          uint64 // registry id of the btrace_ingest_* series
}

// newIngestPipeline wires the admission stage over st and starts its
// periodic gate evaluations.
func newIngestPipeline(st *store.Store, cfg ingestConfig) (*ingestPipeline, error) {
	gcfg, err := cfg.gateConfig()
	if err != nil {
		return nil, err
	}
	p := &ingestPipeline{
		adm:  ingest.NewAdmission(gcfg, cfg.Overrides, cfg.Hub.Publish),
		st:   st,
		sink: st,
	}
	p.obsID = obs.Default().Register(func(e *obs.Emitter) {
		failed := 0.0
		if p.sink.WriteErr() != nil {
			failed = 1
		}
		e.Counter("btrace_ingest_batches_total", "batches the single-store ingest path answered 202", p.batches.Load())
		e.Counter("btrace_ingest_dropped_batches_total", "accepted batches the store refused", p.droppedBatches.Load())
		e.Counter("btrace_ingest_dropped_events_total", "events inside dropped batches", p.droppedEvents.Load())
		e.Counter("btrace_ingest_events_throttled_total", "events dropped by per-tenant quota overrides", p.throttled.Load())
		e.Gauge("btrace_ingest_store_failed", "1 while the store's write path has failed for good", failed)
	})
	p.stopGate = gateLoop(p.evaluate)
	return p, nil
}

// evaluate feeds the store's write-path pressure to the gate.
func (p *ingestPipeline) evaluate() { p.adm.Evaluate(p.st.Pressure()) }

// serve runs one decoded batch through gate → admit → 202 → append on
// the caller's goroutine and releases it. The 202 is flushed whole
// before the append, so its latency is the admission's alone. The append
// is tried once — a store's refusals are sticky — and a refused batch is
// counted, event-exact, as dropped: every event answered 202 ends up
// applied, attributed to the quota or the gate, or in
// btrace_ingest_dropped_events_total by the time serve returns.
func (p *ingestPipeline) serve(w http.ResponseWriter, b *ingestBatch) {
	defer b.release()
	p.batches.Add(1)
	p.evaluate()
	accepted := len(b.es)
	es, c := p.adm.Admit(b.tenant, b.es)
	p.throttled.Add(uint64(c.Throttled))
	ack := append(appendJSONInt(append(b.ack[:0], '{'), "accepted", accepted), "}\n"...)
	w.Header()["Content-Length"] = ackLengths[len(ack)]
	writeAccepted(w, ack)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	if len(es) == 0 || p.sink.AppendEntries(es) == nil {
		return
	}
	p.droppedBatches.Add(1)
	p.droppedEvents.Add(uint64(len(es)))
}

// Close stops the periodic gate evaluations. It waits for nothing
// else: by the time main calls it, http.Server.Shutdown has waited out
// every handler, and each handler appended (or counted) its own batch.
// Safe to call more than once.
func (p *ingestPipeline) Close() {
	p.stopGate()
	// Fold, not unregister: the gauge goes with the pipeline, the
	// counters stay in the process totals.
	obs.Default().Fold(p.obsID)
}

// notReadyReasons returns why the ingest path should refuse traffic —
// empty when it is ready. The conditions are the ones internal/overload's
// package doc names: a dead store write path and the full-drop shedding
// tier (at which nearly every accepted event would be discarded anyway).
func (p *ingestPipeline) notReadyReasons() []string {
	var reasons []string
	if err := p.sink.WriteErr(); err != nil {
		reasons = append(reasons, "store write path failed: "+err.Error())
	}
	if p.adm.Tier() >= overload.TierStream {
		reasons = append(reasons, "overload shedding at full-drop tier")
	}
	return reasons
}

// handleIngest accepts wire-encoded trace records (tracer.EncodeEvent
// framing, concatenated) and feeds the events through the overload gate
// into the durable store — or, in cluster mode, through the distributor
// to a replica quorum. The tenant comes from the X-Btrace-Tenant header
// (default tenant when absent) and drives quota overrides and the
// per-tenant drop attribution on /metrics. Responses: 202 with the
// accepted count, 503 when quorum is unavailable, 400 for malformed
// payloads, 413 for oversized ones.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b := batchPool.Get().(*ingestBatch)
	if status, msg := b.fill(r); status != 0 {
		b.release()
		http.Error(w, msg, status)
		return
	}
	// The 202 bodies are built by hand, byte for byte what json.Encoder
	// wrote for the maps they used to be (keys sorted). The cluster's
	// buffer escapes through w.Write, so it is sized to its body; the
	// single store's is the pooled batch's.
	if s.cluster != nil {
		// Cluster mode: synchronous quorum-ack. A 202 means every event
		// was either durably replicated or attributably dropped by quota
		// or gate policy; only a failed quorum asks the client to retry.
		res := s.cluster.d.Ingest(b.tenant, b.es)
		b.release()
		if res.Refused == res.Seen {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "replica quorum unavailable", http.StatusServiceUnavailable)
			return
		}
		var buf [160]byte
		out := appendJSONInt(append(buf[:0], '{'), "accepted", res.Seen)
		out = appendJSONInt(append(out, ','), "acked", res.Acked)
		out = appendJSONInt(append(out, ','), "gate_dropped", res.GateDropped)
		out = appendJSONInt(append(out, ','), "refused", res.Refused)
		out = appendJSONString(append(out, `,"tenant":`...), res.Tenant)
		out = appendJSONInt(append(out, ','), "throttled", res.Throttled)
		writeAccepted(w, append(out, "}\n"...))
		return
	}
	s.ingest.serve(w, b)
}

var jsonContentType = []string{"application/json"}

// ackLengths[n] is the Content-Length value of an n-byte single-store
// ack, shared like jsonContentType. The ack is flushed before the
// append, and only a declared length lets the client see its end then.
var ackLengths = func() (l [len(ingestBatch{}.ack) + 1][]string) {
	for n := range l {
		l[n] = []string{strconv.Itoa(n)}
	}
	return l
}()

func writeAccepted(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusAccepted)
	w.Write(body)
}

// appendJSONInt appends `"key":v`.
func appendJSONInt(dst []byte, key string, v int) []byte {
	dst = append(append(append(dst, '"'), key...), `":`...)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendJSONString appends s as encoding/json would: verbatim between
// quotes when it is plain ASCII with nothing json escapes (every tenant
// name in practice), through json.Marshal otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
