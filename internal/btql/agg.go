package btql

import (
	"sort"
	"unsafe"

	"btrace/internal/tracer"
)

// Aggregator executes one AggSpec streaming: Observe header fields for every
// matching event (no payload, no entry materialization needed), Merge
// partial aggregators from parallel workers or cluster shards, then Result.
type Aggregator struct {
	spec    AggSpec
	count   uint64
	minTS   uint64
	maxTS   uint64
	buckets map[uint64]uint64 // AggRate: bucket start ts → count
	vals    map[uint64]uint64 // AggTopK: field value → count
}

// New returns a fresh aggregator for the spec.
func (s *AggSpec) New() *Aggregator {
	a := &Aggregator{spec: *s, minTS: ^uint64(0)}
	switch s.Kind {
	case AggRate:
		a.buckets = make(map[uint64]uint64)
	case AggTopK:
		a.vals = make(map[uint64]uint64)
	}
	return a
}

// Observe folds one matching event in. Payload never participates in an
// aggregate, so header fields are all the executor has to supply.
func (a *Aggregator) Observe(stamp, ts uint64, core uint8, tid uint32, cat, level uint8) {
	a.count++
	if ts < a.minTS {
		a.minTS = ts
	}
	if ts > a.maxTS {
		a.maxTS = ts
	}
	switch a.spec.Kind {
	case AggRate:
		a.buckets[ts-ts%a.spec.WindowNs]++
	case AggTopK:
		var v uint64
		switch a.spec.Field {
		case FCore:
			v = uint64(core)
		case FTID:
			v = uint64(tid)
		case FCategory:
			v = uint64(cat)
		default: // FLevel
			v = uint64(level)
		}
		a.vals[v]++
	}
	_ = stamp
}

// ObserveColumns folds in rows idx of a block held by column, reading
// only the columns the aggregate is over: the times (every result
// carries their range, and rate buckets them), plus for topk its field.
func (a *Aggregator) ObserveColumns(c Columns, idx []int32) {
	a.count += uint64(len(idx))
	ts := c.Times()
	for _, i := range idx {
		a.minTS, a.maxTS = min(a.minTS, ts[i]), max(a.maxTS, ts[i])
	}
	switch a.spec.Kind {
	case AggRate:
		for _, i := range idx {
			a.buckets[ts[i]-ts[i]%a.spec.WindowNs]++
		}
	case AggTopK:
		if a.spec.Field == FTID {
			tids := c.TIDs()
			for _, i := range idx {
				a.vals[uint64(tids[i])]++
			}
			return
		}
		// A byte-wide field: count by column byte, then translate the few
		// distinct ones (dictionary indices, for categories).
		col, dict := c.Bytes(a.spec.Field)
		var n [256]uint64
		for _, i := range idx {
			n[col[i]]++
		}
		for v, cnt := range n {
			if cnt == 0 {
				continue
			}
			if dict != nil {
				v = int(dict[v])
			}
			a.vals[uint64(v)] += cnt
		}
	}
}

// ObserveEntry is Observe for callers that already hold a decoded entry.
func (a *Aggregator) ObserveEntry(e *tracer.Entry) {
	a.Observe(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level)
}

// Merge folds a partial aggregator (same spec) into a.
func (a *Aggregator) Merge(b *Aggregator) {
	a.count += b.count
	if b.minTS < a.minTS {
		a.minTS = b.minTS
	}
	if b.maxTS > a.maxTS {
		a.maxTS = b.maxTS
	}
	for k, v := range b.buckets {
		a.buckets[k] += v
	}
	for k, v := range b.vals {
		a.vals[k] += v
	}
}

// Size is the memory a holds, for a cache that charges for what it
// keeps: the struct, and 16 B a rate bucket or counted topk value.
func (a *Aggregator) Size() int64 {
	return int64(unsafe.Sizeof(*a)) + 16*int64(len(a.buckets)+len(a.vals))
}

// Bucket is one rate(window) time bucket.
type Bucket struct {
	StartNs uint64  `json:"start_ns"`
	Count   uint64  `json:"count"`
	PerSec  float64 `json:"per_sec"`
}

// TopValue is one topk(n, field) entry.
type TopValue struct {
	Value uint64 `json:"value"`
	Count uint64 `json:"count"`
}

// Result is the JSON-able output of an aggregate query.
type Result struct {
	Kind     string     `json:"kind"`
	Events   uint64     `json:"events"`
	MinTS    uint64     `json:"min_ts,omitempty"`
	MaxTS    uint64     `json:"max_ts,omitempty"`
	WindowNs uint64     `json:"window_ns,omitempty"`
	Field    string     `json:"field,omitempty"`
	Buckets  []Bucket   `json:"buckets,omitempty"`
	Top      []TopValue `json:"top,omitempty"`
}

// Result finalizes the aggregate. Buckets come back sorted by start time,
// top values by descending count (value ascending as the tie-break, so the
// output is deterministic).
func (a *Aggregator) Result() Result {
	r := Result{Events: a.count}
	if a.count > 0 {
		r.MinTS, r.MaxTS = a.minTS, a.maxTS
	}
	switch a.spec.Kind {
	case AggCount:
		r.Kind = "count"
	case AggRate:
		r.Kind = "rate"
		r.WindowNs = a.spec.WindowNs
		r.Buckets = make([]Bucket, 0, len(a.buckets))
		for start, n := range a.buckets {
			r.Buckets = append(r.Buckets, Bucket{
				StartNs: start,
				Count:   n,
				PerSec:  float64(n) * 1e9 / float64(a.spec.WindowNs),
			})
		}
		sort.Slice(r.Buckets, func(i, j int) bool { return r.Buckets[i].StartNs < r.Buckets[j].StartNs })
	case AggTopK:
		r.Kind = "topk"
		r.Field = a.spec.Field.String()
		all := make([]TopValue, 0, len(a.vals))
		for v, n := range a.vals {
			all = append(all, TopValue{Value: v, Count: n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Count != all[j].Count {
				return all[i].Count > all[j].Count
			}
			return all[i].Value < all[j].Value
		})
		if len(all) > a.spec.K {
			all = all[:a.spec.K]
		}
		r.Top = all
	}
	return r
}
