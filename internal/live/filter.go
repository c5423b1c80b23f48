package live

import (
	"fmt"
	"math/bits"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"btrace/internal/tracer"
)

// Filter selects the slice of the admitted stream a subscriber wants.
// The parameter set mirrors /store/query (category/core/time plus TID),
// with tenant scoping layered on for cluster mode. Zero values match
// everything.
type Filter struct {
	// Tenant scopes the subscription to one tenant's events; ""
	// matches all tenants (the single-operator dashboard case).
	Tenant string
	// MinTS/MaxTS bound the event virtual timestamp (inclusive;
	// MaxTS 0 = unbounded).
	MinTS, MaxTS uint64
	// Cores, Categories and TIDs are membership filters; empty = all.
	Cores, Categories []uint8
	TIDs              []uint32
}

// matcher is a Filter compiled for the publish path, where it runs once
// per event per subscriber: the two uint8 lists become 256-bit sets (an
// empty list is the full set, so membership is one shift and mask with
// no "any" branch) and the TID list a sorted slice, binary-searched.
type matcher struct {
	tenant       string
	minTS, maxTS uint64
	cores, cats  [4]uint64
	tids         []uint32 // sorted; empty = all
}

func (f *Filter) compile() matcher {
	m := matcher{
		tenant: f.Tenant,
		minTS:  f.MinTS,
		maxTS:  f.MaxTS,
		cores:  bitset(f.Cores),
		cats:   bitset(f.Categories),
		tids:   slices.Clone(f.TIDs),
	}
	if m.maxTS == 0 {
		m.maxTS = ^uint64(0)
	}
	slices.Sort(m.tids)
	return m
}

func bitset(xs []uint8) (set [4]uint64) {
	if len(xs) == 0 {
		return [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	}
	for _, x := range xs {
		set[x>>6] |= 1 << (x & 63)
	}
	return set
}

// tenantOK is the per-batch half of the filter: a batch is published
// under one tenant, so offer asks once, not per event.
func (m *matcher) tenantOK(tenant string) bool {
	return m.tenant == "" || m.tenant == tenant
}

// entry is the per-event half.
func (m *matcher) entry(e *tracer.Entry) bool {
	if e.TS < m.minTS || e.TS > m.maxTS ||
		m.cores[e.Core>>6]>>(e.Core&63)&1 == 0 ||
		m.cats[e.Category>>6]>>(e.Category&63)&1 == 0 {
		return false
	}
	if len(m.tids) == 0 {
		return true
	}
	_, ok := slices.BinarySearch(m.tids, e.TID)
	return ok
}

// maxFilterList bounds the comma lists a request may send: a filter is
// a selection, not a payload.
const maxFilterList = 256

// ParseQuery builds a Filter from /live request parameters: min_ts,
// max_ts, cores, categories (comma-separated uint8 lists) and tids
// (comma-separated uint32 list) — the same shapes /store/query takes,
// through the same two parsers. Tenant scoping comes from the request
// header, not the query string, so it is not parsed here.
func ParseQuery(v url.Values) (Filter, error) {
	var f Filter
	var err error
	if f.MinTS, f.MaxTS, err = ParseRange(v, "min_ts", "max_ts"); err != nil {
		return f, err
	}
	if f.Cores, err = ParseList[uint8](v, "cores"); err != nil {
		return f, err
	}
	if f.Categories, err = ParseList[uint8](v, "categories"); err != nil {
		return f, err
	}
	if f.TIDs, err = ParseList[uint32](v, "tids"); err != nil {
		return f, err
	}
	return f, nil
}

// ParseRange parses an inclusive [lo, hi] pair of uint64 parameters,
// each 0 (unbounded) when absent, and rejects a bounded hi below lo.
func ParseRange(v url.Values, loName, hiName string) (lo, hi uint64, err error) {
	if lo, err = parseU64(v, loName); err != nil {
		return 0, 0, err
	}
	if hi, err = parseU64(v, hiName); err != nil {
		return 0, 0, err
	}
	if hi != 0 && hi < lo {
		return 0, 0, fmt.Errorf("%s %d below %s %d", hiName, hi, loName, lo)
	}
	return lo, hi, nil
}

func parseU64(v url.Values, name string) (uint64, error) {
	s := v.Get(name)
	if s == "" {
		return 0, nil
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return u, nil
}

// ParseList parses a comma-separated list of at most maxFilterList
// unsigned integers that fit T; an absent parameter is the empty list.
func ParseList[T uint8 | uint32](v url.Values, name string) ([]T, error) {
	s := v.Get(name)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxFilterList {
		return nil, fmt.Errorf("%s: more than %d elements", name, maxFilterList)
	}
	out := make([]T, 0, len(parts))
	for _, part := range parts {
		u, err := strconv.ParseUint(strings.TrimSpace(part), 10, bits.Len64(uint64(^T(0))))
		if err != nil {
			return nil, fmt.Errorf("bad %s element %q", name, part)
		}
		out = append(out, T(u))
	}
	return out, nil
}
