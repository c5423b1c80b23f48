package ingest

import (
	"fmt"
	"strconv"
	"strings"

	"btrace/internal/overload"
	"btrace/internal/tracer"
)

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
// Rates are events per second of virtual time.
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
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("tenant override %q: bad rate %q", part, rateStr)
		}
		lim := TenantLimit{RatePerSec: rate}
		if hasBurst {
			burst, err := strconv.ParseFloat(strings.TrimSpace(burstStr), 64)
			if err != nil || burst <= 0 {
				return nil, fmt.Errorf("tenant override %q: bad burst %q", part, burstStr)
			}
			lim.Burst = burst
		}
		out[name] = lim.withDefaults()
	}
	return out, nil
}

// tenantLimiter applies per-tenant quota overrides ahead of the shared
// gate: a tenant with an override draws every event from its bucket,
// tenants without one pass through untouched. Driven under the
// Admission's lock, so no locking of its own.
type tenantLimiter struct {
	limits  map[string]TenantLimit
	buckets map[string]*overload.Bucket
}

func newTenantLimiter(overrides map[string]TenantLimit) *tenantLimiter {
	l := &tenantLimiter{limits: make(map[string]TenantLimit), buckets: make(map[string]*overload.Bucket)}
	for name, lim := range overrides {
		l.limits[name] = lim.withDefaults()
	}
	return l
}

// filter drops events beyond the tenant's quota, in place, returning
// the kept prefix and the number dropped.
func (l *tenantLimiter) filter(tenant string, es []tracer.Entry) ([]tracer.Entry, int) {
	lim, ok := l.limits[tenant]
	if !ok || lim.RatePerSec <= 0 {
		return es, 0
	}
	b := l.buckets[tenant]
	if b == nil {
		b = &overload.Bucket{}
		l.buckets[tenant] = b
	}
	out := es[:0]
	for i := range es {
		if b.Take(es[i].TS, lim.RatePerSec, lim.Burst) {
			out = append(out, es[i])
		}
	}
	return out, len(es) - len(out)
}
