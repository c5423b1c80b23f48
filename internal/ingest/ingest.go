// Package ingest is the server-side admission policy, in one place:
// what happens to a decoded batch between the socket and a durable
// store. Both server paths run it — btrace-serve's single-store drain
// and the distributor in front of the shard ring — and nothing else
// knows it:
//
//	verify → tenant quota → overload gate → (quarantined re-appended) → bounded-retry append
//
// Admission is the filtering half, Append the delivery half. The
// device-side collector (internal/collect) is the other end of the
// contract: it follows a tracer and dumps windows; it neither gates nor
// stores.
package ingest

import (
	"runtime"
	"sync"

	"btrace/internal/collect"
	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

// Admission is the verifier, the tenant limiter and the overload gate —
// all single-goroutine by contract — behind one lock, so any number of
// request goroutines may call it. The lock is held only for in-memory
// filtering, never across store I/O.
type Admission struct {
	mu      sync.Mutex
	ver     *collect.Verifier
	limiter *tenantLimiter
	gate    *overload.Gate
	// quarantined counts the entries the verifier flagged.
	quarantined *obs.Counter
}

// NewAdmission builds the admission stage. The verifier is unordered: a
// server multiplexes independent clients, whose batches interleave
// arbitrarily, so only per-thread stamp order is an invariant — an
// ordered verifier would quarantine legitimate interleaved traffic
// around the gate and the live tail.
func NewAdmission(gate overload.Config, overrides map[string]TenantLimit) *Admission {
	a := &Admission{
		ver:         collect.NewUnorderedVerifier(),
		limiter:     newTenantLimiter(overrides),
		gate:        overload.NewGate(gate),
		quarantined: obs.NewCounter(1),
	}
	// Both server modes run an Admission, so this is the one place a
	// server emits the series. It keeps the name a Supervisor's verifier
	// count uses, which the benchmark reads. The closure captures the
	// counter, never a, so the finalizer can fold it.
	q, reg := a.quarantined, obs.Default()
	id := reg.Register(func(e *obs.Emitter) {
		e.Counter("btrace_collect_quarantined_total", "entries rejected by the verifier", q.Load())
	})
	runtime.SetFinalizer(a, func(*Admission) { reg.Fold(id) })
	return a
}

// Counts is one Admit call's event-exact accounting:
//
//	Seen == Throttled + GateDropped + len(admitted)
//
// where admitted is the slice Admit returned, Quarantined of which
// bypassed quota and gate.
type Counts struct {
	// Seen is the batch size offered.
	Seen int
	// Quarantined entries failed verification; they are in the returned
	// slice, after the admitted ones.
	Quarantined int
	// Throttled events were dropped by the tenant's quota override.
	Throttled int
	// GateDropped events were dropped by the overload gate (sampled out,
	// rate-limited, or shed).
	GateDropped int
}

// Admit runs one tenant batch through verify → quota → gate, filtering
// es in place (the returned slice aliases it; no per-batch copy), and
// attributes the gate's decisions to tenant ("" is the default tenant).
// Quarantined entries are evidence, never shed: they bypass quota and
// gate — and so the gate's Admitted hook, the live tail — and are
// re-appended after the admitted ones, into the room the filters left.
func (a *Admission) Admit(tenant string, es []tracer.Entry) ([]tracer.Entry, Counts) {
	if tenant == "" {
		tenant = overload.DefaultTenant
	}
	c := Counts{Seen: len(es)}
	a.mu.Lock()
	clean, quarantined, _ := a.ver.Check(es)
	kept, throttled := a.limiter.filter(tenant, clean)
	a.gate.SetTenant(tenant)
	admitted := a.gate.Filter(kept)
	a.mu.Unlock()
	c.Quarantined = len(quarantined)
	if c.Quarantined > 0 { // the common batch leaves the shared counter alone
		a.quarantined.Add(uint64(c.Quarantined))
	}
	c.Throttled = throttled
	c.GateDropped = len(kept) - len(admitted)
	return append(admitted, quarantined...), c
}

// Evaluate feeds the gate's controller one pressure observation: the
// store's (or the shard fleet's worst) write-path signals.
func (a *Admission) Evaluate(p overload.Pressure) {
	a.mu.Lock()
	a.gate.Evaluate(p)
	a.mu.Unlock()
}

// Tier returns the gate's engaged shedding tier.
func (a *Admission) Tier() overload.Tier {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gate.Tier()
}

// Quarantined returns how many entries the verifier has flagged.
func (a *Admission) Quarantined() uint64 { return a.quarantined.Load() }

// GateStats snapshots the gate's counters.
func (a *Admission) GateStats() overload.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gate.Stats()
}

// TenantStats snapshots the gate's per-tenant attribution table.
func (a *Admission) TenantStats() map[string]overload.TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gate.TenantStats()
}

// Sink is the durable store as the delivery half sees it (store.Store
// satisfies it; fault injectors wrap it).
type Sink interface {
	// AppendEntries durably stages a batch; nil means applied.
	AppendEntries(es []tracer.Entry) error
	// WriteErr reports a sticky write-path failure: once non-nil, no
	// later append can succeed.
	WriteErr() error
}

// Append delivers es to sink within a budget of attempts, stopping
// early on a sticky write-path failure — the disk is gone, retrying
// cannot help. It returns the attempts made and the last error; nil
// means applied, and a refused batch leaves nothing behind for the sink
// to apply later.
func Append(sink Sink, es []tracer.Entry, attempts int) (tries int, err error) {
	for tries < attempts {
		tries++
		if err = sink.AppendEntries(es); err == nil || sink.WriteErr() != nil {
			break
		}
	}
	return tries, err
}
