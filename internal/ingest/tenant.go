package ingest

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"btrace/internal/collect"
	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/tracer"
)

// DefaultTenant is the tenant of a batch that names none.
const DefaultTenant = "default"

// TenantOverflow is the row every tenant beyond MaxTenants is booked to:
// the table stays bounded however many names clients invent, at the cost
// of attribution detail for the overflow.
const TenantOverflow = "~other"

// MaxTenants bounds the rows the table creates on demand. Override
// tenants and the overflow row exist from construction and are not
// counted against it.
const MaxTenants = 64

// TenantStats is one tenant's slice of the gate's accounting. Dropped
// folds every refusal mechanism together — sampling, throttling and
// shedding — because per-tenant blame wants one number; the per-cause
// split remains global in overload.Stats. The quota's drops are not in
// it: Seen counts what the tenant offered the gate.
type TenantStats struct {
	Seen     uint64
	Admitted uint64
	Dropped  uint64
}

// TenantLimit is one tenant's ingest quota override: an overload.Bucket
// on virtual time (the event stream's own TS clock), the gate's own
// limiter, so replayed and live traffic behave the same. The zero value
// means "no quota".
type TenantLimit struct {
	// RatePerSec is the refill rate in events per second of virtual
	// time; 0 disables the quota.
	RatePerSec float64
	// Burst is the bucket capacity (default 2×RatePerSec, minimum 1).
	Burst float64
}

func (l TenantLimit) withDefaults() TenantLimit {
	if l.RatePerSec > 0 && l.Burst <= 0 {
		l.Burst = 2 * l.RatePerSec
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// ParseOverrides parses the -tenant-overrides flag syntax: a comma
// list of name=rate or name=rate:burst entries, e.g.
//
//	alpha=1000,beta=500:2000
//
// Rates are events per second of virtual time. A rate must be finite
// and above 0 and a burst, given or defaulted, finite and at least 1:
// NaN throttles every event, an infinite rate means no quota at all,
// and a bucket below one token never admits one. Every comparison is
// written so that NaN fails it.
func ParseOverrides(s string) (map[string]TenantLimit, error) {
	out := make(map[string]TenantLimit)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant override %q: want name=rate[:burst]", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant override %q: duplicate tenant", name)
		}
		rateStr, burstStr, hasBurst := strings.Cut(spec, ":")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil || !(rate > 0 && rate <= math.MaxFloat64) {
			return nil, fmt.Errorf("tenant override %q: bad rate %q, want a finite rate > 0", part, rateStr)
		}
		lim := TenantLimit{RatePerSec: rate}
		if hasBurst {
			burst, err := strconv.ParseFloat(strings.TrimSpace(burstStr), 64)
			if err != nil || !(burst >= 1 && burst <= math.MaxFloat64) {
				return nil, fmt.Errorf("tenant override %q: bad burst %q, want a finite burst >= 1", part, burstStr)
			}
			lim.Burst = burst
		}
		lim = lim.withDefaults()
		if math.IsInf(lim.Burst, 0) {
			return nil, fmt.Errorf("tenant override %q: rate %v too large for its default burst of twice that", part, rate)
		}
		out[name] = lim
	}
	return out, nil
}

// tenantRow is everything Admission keeps per tenant: its verifier (two
// tenants reusing a thread id do not quarantine each other), its quota
// bucket and its attribution.
type tenantRow struct {
	TenantStats
	ver    *collect.Verifier
	limit  TenantLimit
	bucket overload.Bucket
}

func newTenantRow(limit TenantLimit) *tenantRow {
	return &tenantRow{ver: collect.NewVerifier(), limit: limit.withDefaults()}
}

// throttle drops the events beyond the row's quota, in place, returning
// the kept prefix; a row without a quota keeps everything.
func (r *tenantRow) throttle(es []tracer.Entry) []tracer.Entry {
	if r.limit.RatePerSec <= 0 {
		return es
	}
	out := es[:0]
	for i := range es {
		if r.bucket.Take(es[i].TS, r.limit.RatePerSec, r.limit.Burst) {
			out = append(out, es[i])
		}
	}
	return out
}

// tenantTable is the bounded tenant table, the overload gate and the
// one lock Admission holds over both. It lives apart from the Admission
// so the /metrics collector can read the rows and the gate's Stats
// without keeping the Admission reachable (its finalizer folds the
// series).
type tenantTable struct {
	mu   sync.Mutex
	rows map[string]*tenantRow
	// spare is how many more rows row may create.
	spare int
	gate  *overload.Gate
}

// newTenantTable creates the override tenants' rows and the overflow
// row; an override named TenantOverflow puts the overflow under a quota.
func newTenantTable(overrides map[string]TenantLimit, gate *overload.Gate) *tenantTable {
	t := &tenantTable{rows: make(map[string]*tenantRow, len(overrides)+1), spare: MaxTenants, gate: gate}
	for name, lim := range overrides {
		t.rows[name] = newTenantRow(lim)
	}
	if t.rows[TenantOverflow] == nil {
		t.rows[TenantOverflow] = newTenantRow(TenantLimit{})
	}
	return t
}

// row returns tenant's row, creating it while the table has room and
// handing out the overflow row once it has none. Called with mu held.
func (t *tenantTable) row(tenant string) *tenantRow {
	if r := t.rows[tenant]; r != nil {
		return r
	}
	if t.spare == 0 {
		return t.rows[TenantOverflow]
	}
	t.spare--
	r := newTenantRow(TenantLimit{})
	t.rows[tenant] = r
	return r
}

// TenantStats snapshots the attribution of every tenant that has offered
// the gate an event.
func (t *tenantTable) TenantStats() map[string]TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tenantStatsLocked()
}

func (t *tenantTable) tenantStatsLocked() map[string]TenantStats {
	out := make(map[string]TenantStats, len(t.rows))
	for name, r := range t.rows {
		if r.Seen > 0 {
			out[name] = r.TenantStats
		}
	}
	return out
}

// collect emits the gate's btrace_overload_* series from its Stats and
// controller state, and the btrace_overload_tenant_* series, one set per
// tenant in the TenantStats snapshot; all of it is read in one hold of
// the lock that guards the gate and the rows.
func (t *tenantTable) collect(e *obs.Emitter) {
	t.mu.Lock()
	g := t.gate
	s, tier, pressure := g.Stats(), g.Tier(), g.Pressure()
	normal, low := g.SampleRates()
	tenants := t.tenantStatsLocked()
	t.mu.Unlock()

	e.Counter("btrace_overload_seen_total", "events offered to the overload gate", s.Seen)
	e.Counter("btrace_overload_admitted_total", "events admitted by the overload gate", s.Admitted)
	e.Counter("btrace_overload_sampled_out_total", "events dropped by head sampling", s.SampledOut)
	e.Counter("btrace_overload_throttled_category_total", "events dropped by a category token bucket", s.ThrottledCategory)
	e.Counter("btrace_overload_shed_category_total", "events shed at the category tier", s.ShedCategory)
	e.Counter("btrace_overload_shed_stream_total", "events shed at the stream tier", s.ShedStream)
	e.Counter("btrace_overload_payload_shed_events_total", "admitted events whose payload was stripped", s.PayloadShedEvents)
	e.Counter("btrace_overload_payload_shed_bytes_total", "payload bytes stripped at the payload tier", s.PayloadShedBytes)
	e.Counter("btrace_overload_evaluations_total", "controller pressure evaluations", s.Evaluations)
	e.Counter("btrace_overload_tier_engagements_total", "shed tier escalations", s.TierEngagements)
	e.Counter("btrace_overload_tier_releases_total", "shed tier releases", s.TierReleases)
	e.Gauge("btrace_overload_shed_tier", "engaged shedding tier (0 none, 1 payload, 2 category, 3 stream)", float64(tier))
	e.Gauge("btrace_overload_pressure", "smoothed pressure score", milli(pressure))
	e.Gauge("btrace_overload_sample_rate", "current keep rate for normal-priority events", milli(normal))
	e.Gauge("btrace_overload_sample_rate_low", "current keep rate for low-priority events", milli(low))
	e.Gauge("btrace_overload_gates", "live overload gates", 1)
	for name, s := range tenants {
		label := fmt.Sprintf("{tenant=%q}", name)
		e.Counter("btrace_overload_tenant_seen_total"+label, "events offered to the gate, by tenant", s.Seen)
		e.Counter("btrace_overload_tenant_admitted_total"+label, "events admitted by the gate, by tenant", s.Admitted)
		e.Counter("btrace_overload_tenant_dropped_total"+label, "events the gate refused, by tenant", s.Dropped)
	}
}

// milli truncates a controller output in [0, 1] to the thousandths the
// pressure and sample-rate gauges have always been published at.
func milli(x float64) float64 { return float64(int64(x*1000)) / 1000 }
