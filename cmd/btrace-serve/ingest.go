package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrace/internal/ingest"
	"btrace/internal/live"
	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/store"
)

// ingestQueueDepth is the number of accepted-but-unapplied batches the
// pipeline holds before /ingest starts answering 429. The bound is the
// server-side backpressure, also while the store is failing: beyond it
// the client is told to slow down instead of memory growing.
const ingestQueueDepth = 256

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

// ingestPipeline owns the single-store POST /ingest delivery path: a
// bounded queue of decoded batches and one goroutine that blocks on it
// and runs internal/ingest's admit, then one store append, on each, and
// releases the batch. A 202 is an enqueue; the cluster path (cluster.go)
// acks a quorum instead. HTTP handlers touch only the queue, the
// rejected counter and the Admission, which locks itself.
type ingestPipeline struct {
	queue chan *ingestBatch
	adm   *ingest.Admission
	st    *store.Store
	// sink is st; the failure-path tests substitute a flaky one. Its
	// WriteErr is /readyz's and btrace_ingest_store_failed's.
	sink ingest.Sink

	// admit orders enqueues against Close: once closed is set nothing
	// more enters the queue, so closing it is safe and everything that
	// was answered 202 is in front of the drain's exit.
	admit     sync.RWMutex
	closed    bool
	done      chan struct{}
	rejected  atomic.Uint64 // batches refused with 429
	throttled atomic.Uint64 // events dropped by a tenant quota override

	// The drain's counters, published as btrace_ingest_*: batches taken
	// off the queue, and the batches (and their events) the store
	// refused.
	batches        atomic.Uint64
	droppedBatches atomic.Uint64
	droppedEvents  atomic.Uint64
	obsID          uint64 // registry id of the btrace_ingest_* series
}

// newIngestPipeline wires the admission stage over st and starts the
// drain goroutine.
func newIngestPipeline(st *store.Store, cfg ingestConfig) (*ingestPipeline, error) {
	gcfg, err := cfg.gateConfig()
	if err != nil {
		return nil, err
	}
	queue := make(chan *ingestBatch, ingestQueueDepth)
	p := &ingestPipeline{
		queue: queue,
		adm:   ingest.NewAdmission(gcfg, cfg.Overrides, cfg.Hub.Publish),
		st:    st,
		sink:  st,
		done:  make(chan struct{}),
	}
	p.obsID = obs.Default().Register(func(e *obs.Emitter) {
		failed := 0.0
		if p.sink.WriteErr() != nil {
			failed = 1
		}
		e.Gauge("btrace_ingest_queue_depth", "accepted batches waiting for the ingest drain", float64(len(queue)))
		e.Counter("btrace_ingest_batches_total", "batches the ingest drain took off the queue", p.batches.Load())
		e.Counter("btrace_ingest_dropped_batches_total", "accepted batches the store refused", p.droppedBatches.Load())
		e.Counter("btrace_ingest_dropped_events_total", "events inside dropped batches", p.droppedEvents.Load())
		e.Counter("btrace_ingest_events_throttled_total", "events dropped by per-tenant quota overrides", p.throttled.Load())
		e.Gauge("btrace_ingest_store_failed", "1 while the store's write path has failed for good", failed)
	})
	go p.run()
	return p, nil
}

// run is the drain goroutine. It blocks on the queue — an accepted
// batch is applied as soon as the previous one is, with no poll
// interval in between — and returns once Close has closed the queue and
// everything in it has been applied or counted.
func (p *ingestPipeline) run() {
	defer close(p.done)
	// No traffic must not mean no evaluations: a tier that engaged has
	// to be able to cool down while clients heed /readyz and stay away.
	idle := time.NewTicker(gateEvery)
	defer idle.Stop()
	for {
		select {
		case b, ok := <-p.queue:
			if !ok {
				return
			}
			p.apply(b)
		case <-idle.C:
			p.adm.Evaluate(p.st.Pressure())
		}
	}
}

// apply runs one batch through admit → append and releases it. The
// append is tried once — a store's refusals are sticky — and a refused
// batch is counted, event-exact, as dropped: every event answered 202
// ends up applied, attributed to the quota or the gate, or in
// btrace_ingest_dropped_events_total.
func (p *ingestPipeline) apply(b *ingestBatch) {
	defer b.release()
	p.batches.Add(1)
	p.adm.Evaluate(p.st.Pressure())
	es, c := p.adm.Admit(b.tenant, b.es)
	p.throttled.Add(uint64(c.Throttled))
	if len(es) == 0 {
		return
	}
	if p.sink.AppendEntries(es) == nil {
		return
	}
	p.droppedBatches.Add(1)
	p.droppedEvents.Add(uint64(len(es)))
}

// Close stops intake, waits for the drain to apply (or count as
// dropped) everything that was accepted, and returns. The store must
// stay open until then. Safe to call more than once.
func (p *ingestPipeline) Close() {
	p.admit.Lock()
	first := !p.closed
	if first {
		p.closed = true
		close(p.queue)
	}
	p.admit.Unlock()
	<-p.done
	if first {
		// Fold, not unregister: the gauges go with the queue, the
		// counters stay in the process totals.
		obs.Default().Fold(p.obsID)
	}
}

// enqueue offers one decoded batch to the drain without blocking. On
// true the drain owns b; on false (queue full, or closing) the caller
// still does.
func (p *ingestPipeline) enqueue(b *ingestBatch) bool {
	p.admit.RLock()
	defer p.admit.RUnlock()
	if !p.closed {
		select {
		case p.queue <- b:
			return true
		default:
		}
	}
	p.rejected.Add(1)
	return false
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
// accepted count, 429 when the queue is full (client should back off
// and retry), 503 when quorum is unavailable, 400 for malformed
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
	// wrote for the maps they used to be (keys sorted). The buffers
	// escape through w.Write, so each is sized to its body.
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
	accepted := len(b.es)
	if !s.ingest.enqueue(b) {
		b.release()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	var buf [24]byte
	writeAccepted(w, append(appendJSONInt(append(buf[:0], '{'), "accepted", accepted), "}\n"...))
}

var jsonContentType = []string{"application/json"}

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
