package ingest

import (
	"runtime"

	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

// Admission is the tenant table and the overload gate — all
// single-goroutine by contract — behind one lock, so any number of
// request goroutines may call it. The lock is held only for in-memory
// filtering and the live publish, never across store I/O.
type Admission struct {
	// tenantTable holds the lock, the tenant rows and the gate; its
	// TenantStats is Admission's.
	*tenantTable
	// publish, when set, receives every non-empty admitted batch under
	// its tenant (the /live fan-out, live.Hub.Publish).
	publish func(tenant string, es []tracer.Entry)
	// quarantined counts the entries the verifiers flagged.
	quarantined *obs.Counter
}

// NewAdmission builds the admission stage. Each tenant's verifier is
// unordered: a server multiplexes independent clients, whose batches
// interleave arbitrarily, so only per-thread stamp order is an invariant
// — an ordered verifier would quarantine legitimate interleaved traffic
// around the gate and the live tail. publish may be nil; it is called
// under the lock with a slice that aliases the caller's batch, so it
// must copy what it keeps and must not block.
func NewAdmission(gate overload.Config, overrides map[string]TenantLimit, publish func(tenant string, es []tracer.Entry)) *Admission {
	a := &Admission{
		tenantTable: newTenantTable(overrides, overload.NewGate(gate)),
		publish:     publish,
		quarantined: obs.NewCounter(1),
	}
	// Both server modes run an Admission, so this is the one place a
	// server emits these series. The quarantine count keeps the
	// btrace_collect_ name the verifier's count has always had, which the
	// benchmark reads. The closure captures the counter and the table,
	// never a, so the finalizer can fold them.
	q, t, reg := a.quarantined, a.tenantTable, obs.Default()
	id := reg.Register(func(e *obs.Emitter) {
		e.Counter("btrace_collect_quarantined_total", "entries rejected by the verifier", q.Load())
		t.collect(e)
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
	// Tenant is the tenant the batch was admitted as: the caller's, or
	// DefaultTenant for none.
	Tenant string
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
// es in place (the returned slice aliases it; no per-batch copy), books
// the gate's decisions to the tenant's row and publishes what it
// admitted under the tenant's own name, even when the row it is booked
// to is TenantOverflow. Quarantined entries are evidence, never shed:
// they bypass quota, gate and the live tail, and are re-appended after
// the admitted ones, into the room the filters left.
func (a *Admission) Admit(tenant string, es []tracer.Entry) ([]tracer.Entry, Counts) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c := Counts{Tenant: tenant, Seen: len(es)}
	a.mu.Lock()
	r := a.row(tenant)
	clean, quarantined, _ := r.ver.Check(es)
	kept := r.throttle(clean)
	admitted := a.gate.Filter(kept)
	c.Quarantined, c.Throttled, c.GateDropped = len(quarantined), len(clean)-len(kept), len(kept)-len(admitted)
	r.Seen += uint64(len(kept))
	r.Admitted += uint64(len(admitted))
	r.Dropped += uint64(c.GateDropped)
	if a.publish != nil && len(admitted) > 0 {
		a.publish(tenant, admitted)
	}
	a.mu.Unlock()
	if c.Quarantined > 0 { // the common batch leaves the shared counter alone
		a.quarantined.Add(uint64(c.Quarantined))
	}
	return append(admitted, quarantined...), c
}

// Evaluate feeds the gate's controller one pressure observation: the
// store's (or the shard fleet's worst) write-path signals.
func (a *Admission) Evaluate(p overload.StorePressure) {
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

// Quarantined returns how many entries the verifiers have flagged.
func (a *Admission) Quarantined() uint64 { return a.quarantined.Load() }

// GateStats snapshots the gate's counters.
func (a *Admission) GateStats() overload.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gate.Stats()
}

// Sink is the durable store as the single-store /ingest handler sees it
// (store.Store satisfies it; the handler's tests substitute failing
// ones).
type Sink interface {
	// AppendEntries durably stages a batch; nil means applied, and a
	// refused batch leaves nothing behind for the sink to apply later.
	// A store's refusals are sticky (its write path is gone), so a
	// caller tries a batch once.
	AppendEntries(es []tracer.Entry) error
	// WriteErr reports a sticky write-path failure: once non-nil, no
	// later append can succeed.
	WriteErr() error
}
