package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Kind classifies a Sample.
type Kind uint8

// Sample kinds, matching the Prometheus metric types they render as.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Sample is one collected metric value. Counter and gauge samples carry
// Value; histogram samples carry Hist.
type Sample struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64
	Hist  HistSnap
}

// Emitter accumulates the samples of one collection pass. Collectors
// call its typed methods; names must be valid Prometheus metric names
// and stable across passes (merging is by name).
type Emitter struct {
	samples []Sample
}

// Counter emits a monotonic counter sample.
func (e *Emitter) Counter(name, help string, v uint64) {
	e.samples = append(e.samples, Sample{Name: name, Help: help, Kind: KindCounter, Value: float64(v)})
}

// CounterSeconds emits a monotonic counter accumulated in nanoseconds
// as seconds, the unit Prometheus names a duration total in.
func (e *Emitter) CounterSeconds(name, help string, ns uint64) {
	e.samples = append(e.samples, Sample{Name: name, Help: help, Kind: KindCounter, Value: float64(ns) / 1e9})
}

// Gauge emits an instantaneous value sample.
func (e *Emitter) Gauge(name, help string, v float64) {
	e.samples = append(e.samples, Sample{Name: name, Help: help, Kind: KindGauge, Value: v})
}

// Histogram emits a histogram sample.
func (e *Emitter) Histogram(name, help string, h HistSnap) {
	e.samples = append(e.samples, Sample{Name: name, Help: help, Kind: KindHistogram, Hist: h})
}

// CollectFunc is a live metric source: it emits the instance's current
// samples. It must not call back into the registry it is registered with
// (the registry's lock is held during collection).
type CollectFunc func(e *Emitter)

// Registry aggregates metric sources. Multiple instances of one
// subsystem (every open Buffer, Supervisor, Store) emit the same series
// names; Snapshot merges them by summing, so the rendered view is the
// process-wide total. When an instance goes away it is folded: its final
// counter and histogram values move into a retired accumulator so
// process-lifetime totals never go backwards, while its gauges (capacity,
// queue depths) disappear with it.
type Registry struct {
	mu      sync.Mutex
	nextID  uint64
	sources map[uint64]CollectFunc
	// retired holds folded counter/histogram samples, merged by name.
	retired map[string]*Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		sources: make(map[uint64]CollectFunc),
		retired: make(map[string]*Sample),
	}
}

// defaultRegistry is the process-wide registry every subsystem registers
// into and /metrics renders. It starts with one source of its own: the
// Go runtime's GC and allocation accounting (runtime.go).
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	r.Register(collectRuntime)
	return r
}()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Register adds a metric source and returns its id for Unregister/Fold.
func (r *Registry) Register(fn CollectFunc) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.sources[r.nextID] = fn
	return r.nextID
}

// Unregister removes a source without folding: its contribution simply
// vanishes from future snapshots. Use Fold for instances whose counters
// should persist as retired totals.
func (r *Registry) Unregister(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sources, id)
}

// Fold collects a source one final time, merges its counters and
// histograms into the retired accumulator (gauges are dropped — a dead
// instance has no instantaneous state), and removes it.
func (r *Registry) Fold(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.sources[id]
	if !ok {
		return
	}
	delete(r.sources, id)
	var e Emitter
	fn(&e)
	for i := range e.samples {
		s := &e.samples[i]
		if s.Kind == KindGauge {
			continue
		}
		if prev, ok := r.retired[s.Name]; ok {
			mergeSample(prev, s)
		} else {
			cp := *s
			r.retired[s.Name] = &cp
		}
	}
}

// mergeSample folds src into dst (same name). Counters and gauges sum;
// histograms sum per bucket when the bounds match (mismatched layouts
// keep dst, a programming error surfaced by the unit tests, not worth a
// render-path failure).
func mergeSample(dst, src *Sample) {
	switch dst.Kind {
	case KindHistogram:
		if len(dst.Hist.Counts) != len(src.Hist.Counts) {
			return
		}
		// dst may alias a collector's snapshot; copy before mutating.
		counts := make([]uint64, len(dst.Hist.Counts))
		copy(counts, dst.Hist.Counts)
		for i, c := range src.Hist.Counts {
			counts[i] += c
		}
		dst.Hist.Counts = counts
		dst.Hist.Sum += src.Hist.Sum
		dst.Hist.Count += src.Hist.Count
	default:
		dst.Value += src.Value
	}
}

// Snapshot is a consistent, name-sorted view of every series the
// registry knows: live sources and retired totals, merged by name.
type Snapshot struct {
	Samples []Sample
}

// Get returns the sample with the given name.
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Value returns the counter/gauge value of the named series (0 if
// absent), the convenient form for tests and dashboards.
func (s Snapshot) Value(name string) float64 {
	sm, _ := s.Get(name)
	return sm.Value
}

// Snapshot collects every live source, merges with the retired totals,
// and returns the combined view sorted by name. The registry lock is
// held across the whole pass, so one Snapshot never mixes a source's
// pre-Fold and post-Fold contributions.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := make(map[string]*Sample, len(r.retired))
	for name, s := range r.retired {
		cp := *s
		merged[name] = &cp
	}
	var e Emitter
	for _, fn := range r.sources {
		fn(&e)
	}
	for i := range e.samples {
		s := &e.samples[i]
		if prev, ok := merged[s.Name]; ok {
			mergeSample(prev, s)
		} else {
			cp := *s
			merged[s.Name] = &cp
		}
	}
	out := Snapshot{Samples: make([]Sample, 0, len(merged))}
	for _, s := range merged {
		out.Samples = append(out.Samples, *s)
	}
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i].Name < out.Samples[j].Name })
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for i := range s.Samples {
		sm := &s.Samples[i]
		if sm.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", sm.Name, sm.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sm.Name, sm.Kind); err != nil {
			return err
		}
		switch sm.Kind {
		case KindHistogram:
			if err := writeHist(w, sm.Name, sm.Hist); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", sm.Name, formatFloat(sm.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name string, h HistSnap) error {
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry's current snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// Handler returns the /metrics HTTP handler over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are out; all we can do is drop the connection.
			return
		}
	})
}
