package btql

import (
	"fmt"
	"math/bits"
	"net/url"
	"strconv"
	"strings"
)

// ParseParams builds a query from the filter parameters /store/query
// and /live share: q (BTQL source) and the field parameters, a second
// spelling of the same language — min_stamp/max_stamp and min_ts/max_ts
// (inclusive ranges, 0 or absent = open), cores and categories
// (comma-separated uint8 lists) and tids (comma-separated uint32 list).
// The fields are ANDed in front of q's filter; q's aggregate stage, if
// any, comes back as the query's.
func ParseParams(v url.Values) (*Query, error) {
	q := &Query{}
	if src := v.Get("q"); src != "" {
		var err error
		if q, err = Parse(src); err != nil {
			return nil, err
		}
	}
	minStamp, maxStamp, err := parseRange(v, "min_stamp", "max_stamp")
	if err != nil {
		return nil, err
	}
	minTS, maxTS, err := parseRange(v, "min_ts", "max_ts")
	if err != nil {
		return nil, err
	}
	cores, err := parseList[uint8](v, "cores")
	if err != nil {
		return nil, err
	}
	cats, err := parseList[uint8](v, "categories")
	if err != nil {
		return nil, err
	}
	tids, err := parseList[uint32](v, "tids")
	if err != nil {
		return nil, err
	}
	q.Filter = AllOf(
		Between(FStamp, minStamp, maxStamp), Between(FTime, minTS, maxTS),
		In(FCore, cores), In(FCategory, cats), In(FTID, tids),
		q.Filter)
	return q, nil
}

// parseRange parses an inclusive [lo, hi] pair of uint64 parameters,
// each 0 (unbounded) when absent, and rejects a bounded hi below lo.
func parseRange(v url.Values, loName, hiName string) (lo, hi uint64, err error) {
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

// parseList parses a comma-separated list of at most MaxInList unsigned
// integers that fit T; an absent parameter is the empty list. The bound
// is checked on the separators, before anything is allocated per
// element.
func parseList[T uint8 | uint32](v url.Values, name string) ([]T, error) {
	s := v.Get(name)
	if s == "" {
		return nil, nil
	}
	n := strings.Count(s, ",") + 1
	if n > MaxInList {
		return nil, fmt.Errorf("%s: more than %d elements", name, MaxInList)
	}
	out := make([]T, 0, n)
	for _, part := range strings.Split(s, ",") {
		u, err := strconv.ParseUint(strings.TrimSpace(part), 10, bits.Len64(uint64(^T(0))))
		if err != nil {
			return nil, fmt.Errorf("bad %s element %q", name, part)
		}
		out = append(out, T(u))
	}
	return out, nil
}
