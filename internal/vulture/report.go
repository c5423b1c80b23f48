// Package vulture continuously verifies a running btrace-serve: it
// writes known stamped traces through POST /ingest and reads every
// acked stamp back through each query surface — the /live tail, the
// one-worker and parallel /store/query reads, the BTQL filter and
// count() pipelines, and (once segments have aged into it) the cold
// columnar tier — alerting on loss, duplication or mis-ordering. The name follows the SRE tradition of "vulture"
// processes that circle a storage system probing for silently dropped
// writes: an ack is a durability promise, and this package exists to
// catch the promise being broken, continuously, in CI soak jobs and
// against live deployments alike.
package vulture

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Violation kinds.
const (
	KindLoss      = "loss"      // an acked stamp a read surface never returned
	KindDuplicate = "duplicate" // a stamp returned more than once by one read
	KindMisorder  = "misorder"  // stamps out of ascending order within one read
)

// maxViolations bounds the retained per-violation detail; past it only
// the counters grow (a broken store would otherwise fill memory with
// millions of identical complaints).
const maxViolations = 64

// Violation is one concrete broken promise, with enough detail to
// reproduce the probe that caught it.
type Violation struct {
	Surface string `json:"surface"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Surface, v.Kind, v.Detail)
}

// SurfaceStats aggregates one read surface's verification history.
type SurfaceStats struct {
	Checks     uint64 `json:"checks"`     // verification reads performed
	Events     uint64 `json:"events"`     // acked stamps confirmed present, in order, once
	Loss       uint64 `json:"loss"`       // acked stamps missing from a read
	Duplicates uint64 `json:"duplicates"` // stamps returned more than once
	Misorder   uint64 `json:"misorder"`   // ordering inversions observed
}

func (s SurfaceStats) clean() bool {
	return s.Loss == 0 && s.Duplicates == 0 && s.Misorder == 0
}

// Report accumulates a vulture run's evidence. All methods are safe for
// concurrent use; writers and per-surface readers share one report.
type Report struct {
	mu         sync.Mutex
	surfaces   map[string]*SurfaceStats
	violations []Violation

	// Write-side counters.
	BatchesSent   uint64 // batches POSTed to /ingest
	EventsAcked   uint64 // events the server took responsibility for
	EventsDropped uint64 // events attributably dropped pre-ack (quota, gate)
	EventsRefused uint64 // events refused (failed quorum) — retriable, not loss
	Backoffs      uint64 // 429/503 responses that triggered a retry wait

	// Live-tail accounting (the /live surface reports delivery and loss
	// through its own protocol rather than range reads).
	LiveDelivered uint64 // frames received on the live subscription
	LiveMissed    uint64 // events the hub reported dropping for this subscriber
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{surfaces: make(map[string]*SurfaceStats)}
}

func (r *Report) surface(name string) *SurfaceStats {
	s := r.surfaces[name]
	if s == nil {
		s = &SurfaceStats{}
		r.surfaces[name] = s
	}
	return s
}

func (r *Report) violate(surface, kind, format string, args ...any) {
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations,
			Violation{Surface: surface, Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
}

// VerifyRange checks one read-back against the ack contract: stamps is
// what surface returned for the inclusive acked range [lo, hi], and
// every stamp in the range must appear exactly once, in ascending
// order. Returns true when the read was clean.
func (r *Report) VerifyRange(surface string, lo, hi uint64, stamps []uint64) bool {
	if hi < lo {
		return true
	}
	n := hi - lo + 1
	seen := make([]uint32, n)
	var loss, dups, misorder uint64
	var prev uint64
	for i, s := range stamps {
		if s < lo || s > hi {
			continue // not ours; range reads over shared stores may co-mingle
		}
		if i > 0 && s <= prev {
			misorder++
		}
		prev = s
		seen[s-lo]++
		if seen[s-lo] == 2 { // count each duplicated stamp once
			dups++
		}
	}
	for i := range seen {
		if seen[i] == 0 {
			loss++
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.surface(surface)
	st.Checks++
	st.Events += n - loss
	st.Loss += loss
	st.Duplicates += dups
	st.Misorder += misorder
	if loss > 0 {
		r.violate(surface, KindLoss, "range [%d, %d]: %d of %d acked stamps missing", lo, hi, loss, n)
	}
	if dups > 0 {
		r.violate(surface, KindDuplicate, "range [%d, %d]: %d stamps returned more than once", lo, hi, dups)
	}
	if misorder > 0 {
		r.violate(surface, KindMisorder, "range [%d, %d]: %d ordering inversions", lo, hi, misorder)
	}
	return loss == 0 && dups == 0 && misorder == 0
}

// VerifyCount holds a server-side aggregate count over the inclusive
// acked range [lo, hi] to the ack contract: got must equal the range
// size exactly. A shortfall is loss, an excess is duplication (a
// replica counted twice). Returns true when the count was exact.
func (r *Report) VerifyCount(surface string, lo, hi, got uint64) bool {
	if hi < lo {
		return true
	}
	n := hi - lo + 1
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.surface(surface)
	st.Checks++
	switch {
	case got < n:
		st.Events += got
		st.Loss += n - got
		r.violate(surface, KindLoss, "range [%d, %d]: count() saw %d of %d acked events", lo, hi, got, n)
	case got > n:
		st.Events += n
		st.Duplicates += got - n
		r.violate(surface, KindDuplicate, "range [%d, %d]: count() saw %d for %d acked events", lo, hi, got, n)
	default:
		st.Events += n
	}
	return got == n
}

// ObserveLive folds one live frame into the report: stamps on a live
// subscription must be strictly increasing per stream (last holds the
// previous stamp for this stream and is updated in place; callers keep
// one per TID).
func (r *Report) ObserveLive(last *uint64, stamp uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.LiveDelivered++
	s := r.surface("live")
	s.Events++
	if *last != 0 {
		if stamp == *last {
			s.Duplicates++
			r.violate("live", KindDuplicate, "stamp %d delivered twice in a row", stamp)
		} else if stamp < *last {
			s.Misorder++
			r.violate("live", KindMisorder, "stamp %d arrived after %d", stamp, *last)
		}
	}
	*last = stamp
}

// LiveLoss records acked events that never surfaced on the live tail as
// either a delivered frame or an acknowledged missed-event notice —
// the strict-live closing check.
func (r *Report) LiveLoss(missing uint64) {
	if missing == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.surface("live")
	s.Loss += missing
	r.violate("live", KindLoss, "%d admitted events neither delivered nor counted missed", missing)
}

// Add atomically bumps one of the write-side counters.
func (r *Report) Add(counter *uint64, n uint64) {
	r.mu.Lock()
	*counter += n
	r.mu.Unlock()
}

// Surfaces returns a copy of the per-surface stats.
func (r *Report) Surfaces() map[string]SurfaceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]SurfaceStats, len(r.surfaces))
	for k, v := range r.surfaces {
		out[k] = *v
	}
	return out
}

// Violations returns the retained violation details (capped at
// maxViolations; the counters in Surfaces are exact).
func (r *Report) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...)
}

// Failed reports whether any surface broke the ack contract.
func (r *Report) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.surfaces {
		if !s.clean() {
			return true
		}
	}
	return false
}

// WritePrometheus renders the report in Prometheus text exposition
// format — the shape scrapers and CI log-greppers both already parse —
// followed by the retained violations as comments.
func (r *Report) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.surfaces {
		names = append(names, name)
	}
	sort.Strings(names)
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "# btrace-vulture verification report\n")
	fmt.Fprintf(ew, "btrace_vulture_batches_sent_total %d\n", r.BatchesSent)
	fmt.Fprintf(ew, "btrace_vulture_events_acked_total %d\n", r.EventsAcked)
	fmt.Fprintf(ew, "btrace_vulture_events_dropped_total %d\n", r.EventsDropped)
	fmt.Fprintf(ew, "btrace_vulture_events_refused_total %d\n", r.EventsRefused)
	fmt.Fprintf(ew, "btrace_vulture_backoffs_total %d\n", r.Backoffs)
	fmt.Fprintf(ew, "btrace_vulture_live_delivered_total %d\n", r.LiveDelivered)
	fmt.Fprintf(ew, "btrace_vulture_live_missed_total %d\n", r.LiveMissed)
	for _, name := range names {
		s := r.surfaces[name]
		fmt.Fprintf(ew, "btrace_vulture_checks_total{surface=%q} %d\n", name, s.Checks)
		fmt.Fprintf(ew, "btrace_vulture_events_verified_total{surface=%q} %d\n", name, s.Events)
		fmt.Fprintf(ew, "btrace_vulture_loss_total{surface=%q} %d\n", name, s.Loss)
		fmt.Fprintf(ew, "btrace_vulture_duplicates_total{surface=%q} %d\n", name, s.Duplicates)
		fmt.Fprintf(ew, "btrace_vulture_misorder_total{surface=%q} %d\n", name, s.Misorder)
	}
	for _, v := range r.violations {
		fmt.Fprintf(ew, "# VIOLATION %s\n", v)
	}
	return ew.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
