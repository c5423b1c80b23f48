package obs

import "runtime/metrics"

// runtimeSeries maps the Go runtime's own accounting onto the series
// the default registry exports: how often the collector ran, what it
// cost, and how much the process allocates and keeps. A server whose
// budget is "no allocation on the record path" has to be able to show
// the allocator's share from the running process, not only from pprof.
var runtimeSeries = []struct {
	key, name, help string
	gauge           bool
}{
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "completed GC cycles", false},
	{"/cpu/classes/gc/total:cpu-seconds", "go_gc_cpu_seconds_total", "estimated CPU time spent in the garbage collector", false},
	{"/gc/heap/allocs:bytes", "go_memstats_alloc_bytes_total", "cumulative bytes allocated on the heap", false},
	{"/gc/heap/live:bytes", "go_memstats_heap_live_bytes", "heap bytes marked live by the previous GC cycle", true},
}

// collectRuntime emits runtimeSeries. metrics.Read is a few hundred
// nanoseconds for a handful of keys and runs only on a scrape; a key
// this toolchain does not know reads as KindBad and is skipped.
func collectRuntime(e *Emitter) {
	samples := make([]metrics.Sample, len(runtimeSeries))
	for i := range runtimeSeries {
		samples[i].Name = runtimeSeries[i].key
	}
	metrics.Read(samples)
	for i, s := range samples {
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			continue
		}
		kind := KindCounter
		if runtimeSeries[i].gauge {
			kind = KindGauge
		}
		e.samples = append(e.samples, Sample{Name: runtimeSeries[i].name, Help: runtimeSeries[i].help, Kind: kind, Value: v})
	}
}
