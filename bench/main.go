// Command bench is the repository's end-to-end benchmark: it builds the
// unmodified cmd/btrace-serve, boots it as a child process, drives it
// over HTTP with a seeded, fleet-shaped event stream from at most two
// connections, checks every result against an oracle, and prints every
// metric by name and unit. See README.md.
//
//	go run -C bench .                       all workloads, plain then traced
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	go run -C bench . compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"btrace/bench/gen"
)

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as --out appends it and compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Valid is false when the loader ran late or used too much CPU: the
	// numbers then describe the loader, and compare leaves them out.
	Valid  bool   `json:"valid"`
	Result result `json:"result"`
	// Cycles are the run's raw per-cycle figures, the server's and the
	// control's: what the workloads' sens and quiet-control constants
	// were fitted on, and can be fitted on again.
	Cycles []cycle `json:"cycles"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
			return 2
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	name := flag.String("workload", "", "workload to run (default: all, each plain then traced)")
	seed := flag.Int64("seed", 1, "seed of the generated event stream and query mix")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (default: both)")
	out := flag.String("out", "", "append each run's record to this JSON-lines file, for compare")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// Ctrl-C and SIGTERM cancel the context; every request fails fast,
	// the run unwinds through its defers, and those stop the child and
	// remove its directory.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	env, err := prepare(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer env.ctl.stop()
	ws := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	code := 0
	var last result
	for _, w := range ws {
		var plainP50 float64
		for _, traced := range modes {
			o, err := env.runOne(ctx, w, *seed, time.Duration(*seconds)*time.Second, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			o.print(os.Stdout)
			if !traced {
				plainP50 = o.res.Metrics["op_p50_ms"].Value
			} else if plainP50 > 0 {
				fmt.Printf("%-34s %14.4f ratio  traced run's op_p50_ms / plain run's\n", "trace_overhead_ratio", o.opP50/plainP50)
			}
			if !o.res.Correct {
				code = 1
			}
			if *out != "" {
				rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: traced, Valid: o.valid, Result: o.res, Cycles: o.cycles}
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
			last = o.res
		}
	}
	if *name != "" && *trace >= 0 {
		// The driver's contract: the result is the last line of stdout.
		b, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return code
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env is what every run of one invocation shares: where things are and
// the binaries built from the tree.
type env struct {
	root     string
	benchDir string
	serveBin string
	// ctl is the control server (bench/control), one for the invocation.
	ctl *server
	// layersBin is built on first use: only traced runs need it, and a
	// change that breaks a layer's API must not break the plain run.
	layersBin string
}

func prepare(ctx context.Context) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, benchDir: filepath.Join(root, "bench")}
	t0 := time.Now()
	if e.serveBin, err = goBuild(ctx, root, root, "./cmd/btrace-serve", "btrace-serve"); err != nil {
		return nil, err
	}
	ctlBin, err := goBuild(ctx, root, e.benchDir, "./control", "bench-control")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: built btrace-serve and the control server in %.1fs\n", time.Since(t0).Seconds())
	if e.ctl, err = startControl(ctx, root, ctlBin); err != nil {
		return nil, err
	}
	if err := warmControl(ctx, e.ctl); err != nil {
		e.ctl.stop()
		return nil, err
	}
	return e, nil
}

// trials is how many times a run repeats the whole experiment, each on
// a freshly booted and set-up server with a third of the timed
// seconds: a server process lands in its own performance mode (thread
// placement, heap and cache layout) that moves latency and CPU by a
// tenth, and one process per run would report the mode, not the code.
// Latency and CPU are medians over the cycles of all trials; set-up
// time, disk and memory are medians of the trials' values.
const trials = 3

// bootOnlySetUps is how many more times a run sets up a workload that
// has no preload, only to time it and tear it down again: such a
// set-up is a boot of some tens of milliseconds, and the median of
// three of those does not repeat.
const bootOnlySetUps = 6

// warmup is the untimed traffic before each trial's timed phase: caches
// fill, connections open, the first segments roll.
const warmup = time.Second

// trial is what one server's life produced.
type trial struct {
	m         map[string]float64
	cycles    []cycle
	ops       []sample
	lateMS    []float64
	spans     []span
	n         map[string]int
	attempted int
	failed    int
	loaderCPU float64 // loader CPU seconds while latency was measured
	wall      float64 // the wall seconds they fell in
}

// outcome is one finished run.
type outcome struct {
	w      workload
	traced bool
	res    result
	valid  bool
	notes  []string
	opP50  float64
	n      map[string]int // sample count behind each latency metric
	cycles []cycle
}

// setUp boots a fresh server and brings it to the workload's starting
// state. On failure nothing is left running.
func (e *env) setUp(ctx context.Context, w workload, seed int64) (*run, error) {
	srv, err := startServer(ctx, e.root, e.serveBin, w.flags)
	if err != nil {
		return nil, err
	}
	r, err := newRun(ctx, w, srv, e.ctl, seed)
	if err == nil {
		if err = r.setup(); err != nil {
			srv.dumpLog()
			r.close()
		}
	}
	if err != nil {
		srv.stop()
		return nil, err
	}
	return r, nil
}

func (r *run) tearDown() {
	r.close()
	r.srv.stop()
}

// runTrial sets a server up, warms it, runs the timed phase for d,
// checks the results, and tears the server down again.
func (e *env) runTrial(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*trial, error) {
	t0 := time.Now()
	r, err := e.setUp(ctx, w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.tearDown()
	t := &trial{m: map[string]float64{"setup_s": time.Since(t0).Seconds()}, n: map[string]int{}}
	fail := func(err error) (*trial, error) {
		if ctx.Err() == nil {
			r.srv.dumpLog()
		}
		return nil, err
	}

	if err := r.phase(warmup, false, false); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	hc := r.conns[0].hc
	before, err := r.srv.scrape(hc)
	if err != nil {
		return fail(err)
	}
	overhead := 1.0
	if !traced {
		err = r.phase(d, true, false)
	} else {
		// Half plain, half with spans on: the ratio of the two medians
		// is what recording spans costs the measured operation.
		if err = r.phase(d/2, true, false); err == nil {
			n := len(r.ops)
			if err = r.phase(d/2, true, true); err == nil && n > 0 && len(r.ops) > n {
				overhead = median(millis(r.ops[n:])) / median(millis(r.ops[:n]))
			}
		}
	}
	if err != nil {
		return fail(fmt.Errorf("timed phase: %w", err))
	}
	t.loaderCPU, t.wall = r.loaderCPU, r.loaderWall
	after, err := r.srv.scrape(hc)
	if err != nil {
		return fail(err)
	}
	if len(r.cycles) == 0 {
		return fail(fmt.Errorf("timed phase completed no operation: %v", r.firstErr))
	}
	if traced && w.closed {
		if err := r.saturate(d / 4); err != nil {
			return fail(fmt.Errorf("closed-loop part: %w", err))
		}
	}
	if w.rate > 0 {
		if err := r.verifyWrites(); err != nil {
			return fail(fmt.Errorf("verify: %w", err))
		}
	}
	settled, err := r.srv.scrape(hc)
	if err != nil {
		return fail(err)
	}
	rss, err := r.srv.rssPeakMB()
	if err != nil {
		return fail(err)
	}
	if r.failed > 0 && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %v\n", w.name, r.failed, r.attempted, r.firstErr)
		r.srv.dumpLog()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t.cycles, t.ops, t.lateMS, t.spans = r.cycles, r.ops, r.lateMS, r.spans
	t.attempted, t.failed = r.attempted, r.failed
	m := t.m
	m["disk_bytes_per_event"] = settled["btrace_store_size_bytes"] / (float64(r.next) * gen.BatchEvents)
	m["rss_peak_mb"] = rss
	t.n["op_p50_ms"] = len(r.ops)
	if !traced {
		return t, nil
	}

	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	m["serve.ack_p50_ms"] = p50(millis(r.acks))
	if r.tail == nil && w.rate > 0 {
		m["serve.ack_p50_ms"] = p50(millis(r.ops))
	}
	m["serve.queryable_lag_p50_ms"] = p50(r.freshMS)
	t.n["serve.queryable_lag_p50_ms"] = len(r.freshMS)
	for _, class := range []string{"scan", "selective", "cold", "agg"} {
		name := "serve.query_" + class + "_p50_ms"
		m[name], t.n[name] = p50(r.classMS[class]), len(r.classMS[class])
	}
	m["serve.closed_loop_events_per_s"] = r.closedEPS
	// Per event: over the closed-loop part on the ingest workloads, over
	// every traffic block on tail-mixed.
	m["serve.cpu_ns_per_event"] = r.closedCPUNS
	if r.tail != nil {
		var cpuS float64
		var ops int
		for _, c := range r.cycles {
			cpuS, ops = cpuS+c.CPUS, ops+c.Ops
		}
		m["serve.cpu_ns_per_event"] = cpuS * 1e9 / (float64(ops) * gen.BatchEvents)
	}
	m["serve.http_429"], m["serve.http_503"] = float64(r.http429), float64(r.http503)
	m["bench.trace_overhead_ratio"] = overhead
	scraped(m, before, after, settled)
	return t, nil
}

func (e *env) runOne(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (*outcome, error) {
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%v traced=%v\n", w.name, seed, d.Seconds(), traced)
	var ts []*trial
	for i := 0; i < trials; i++ {
		t, err := e.runTrial(ctx, w, seed, d/trials, traced)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	var setups []float64
	for _, t := range ts {
		setups = append(setups, t.m["setup_s"])
	}
	for i := 0; i < bootOnlySetUps && w.preload == 0; i++ {
		t0 := time.Now()
		r, err := e.setUp(ctx, w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tearDown()
	}

	o := &outcome{w: w, traced: traced, n: map[string]int{}}
	m := map[string]float64{}
	var lateMS []float64
	var spans []span
	var loaderCPU, wall float64
	res := result{Metrics: map[string]metric{}}
	for name := range ts[0].m {
		var xs []float64
		for _, t := range ts {
			xs = append(xs, t.m[name])
		}
		m[name] = median(xs)
	}
	o.n["setup_s"] = len(setups)
	var cycles []cycle
	for _, t := range ts {
		cycles = append(cycles, t.cycles...)
	}
	o.cycles = cycles
	m["op_p50_ms"], m["server_cpu_ms_per_op"], m["setup_s"] = onQuietBox(cycles, setups, w)
	o.n["server_cpu_ms_per_op"] = len(cycles)
	for _, t := range ts {
		for name, n := range t.n {
			o.n[name] += n
		}
		lateMS = append(lateMS, t.lateMS...)
		spans = append(spans, t.spans...)
		loaderCPU, wall = loaderCPU+t.loaderCPU, wall+t.wall
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	o.opP50 = m["op_p50_ms"]
	lateP99, loaderShare := percentile(sortedCopy(lateMS), 0.99), loaderCPU/wall
	o.valid = lateP99 <= maxLatenessP99MS && loaderShare <= maxLoaderShare
	if !o.valid {
		o.notes = append(o.notes, fmt.Sprintf("INVALID: loadgen.lateness_p99_ms=%.3f (limit %v) loadgen.cpu_share=%.3f (limit %v)",
			lateP99, maxLatenessP99MS, loaderShare, maxLoaderShare))
	}
	if !traced {
		o.res = assemble(res, endToEnd, m)
		return o, nil
	}

	// Tail percentiles pool the trials: a third of a run has too few
	// samples for them.
	var pooled []float64
	for _, t := range ts {
		pooled = append(pooled, millis(t.ops)...)
	}
	sort.Float64s(pooled)
	tail := pickTail(len(pooled))
	m["serve.op_p90_ms"] = percentile(pooled, min(tail, 0.9))
	m["serve.op_p99_ms"] = percentile(pooled, tail)
	o.n["serve.op_p90_ms"], o.n["serve.op_p99_ms"] = len(pooled), len(pooled)
	if tail != 0.99 {
		o.notes = append(o.notes, fmt.Sprintf("serve.op_p99_ms is p%g: %d samples have ten beyond no higher percentile", tail*100, len(pooled)))
	}
	pick := func(f func(c cycle) float64) float64 {
		var xs []float64
		for _, c := range cycles {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	m["serve.op_p50_raw_ms"] = pick(func(c cycle) float64 { return c.P50 })
	m["serve.cpu_raw_ms_per_op"] = pick(func(c cycle) float64 { return c.CPUS * 1000 / float64(c.Ops) })
	m["control.op_p50_ms"] = pick(func(c cycle) float64 { return c.CtlP50 })
	m["control.cpu_ms_per_op"] = pick(func(c cycle) float64 { return c.CtlCPUS * 1000 / float64(c.CtlOps) })
	m["loadgen.lateness_p99_ms"] = lateP99
	m["loadgen.cpu_share"] = loaderShare
	probes, probeSpans, err := e.runLayers(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	m["distributor.fanout_ratio"] = m["distributor.ingest_ns_per_event"] / m["store.append_ns_per_event"]
	// What no layer on the workload's ingest path accounts for: HTTP,
	// queue hand-off, scheduling, GC.
	m["serve.residual_share"] = 0
	if e2e := m["serve.cpu_ns_per_event"]; e2e > 0 {
		m["serve.residual_share"] = 1 - pathNS(w, m)/e2e
	}
	o.res = assemble(res, perLayer, m)
	o.notes = append(o.notes, attribution(w, m)...)
	tracePath := filepath.Join(e.benchDir, "out", w.name+".trace.json")
	if err := writeChromeTrace(tracePath, append(spans, probeSpans...)); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, fmt.Sprintf("%d spans written to %s", len(spans)+len(probeSpans), tracePath))
	return o, nil
}

// onQuietBox turns what a run measured into what the quiet reference
// box would have measured. Every cycle carries the control's figures
// from the same second; the box's speed of the moment shows in them, and
// figure × (quiet control / control now)^sens takes it out again:
//
//	op latency   per cycle, by the control's latency; the median over cycles
//	server CPU   the run's total per op, by the control's total per request
//	set-up time  the median of the set-ups, by the control's median latency
func onQuietBox(cycles []cycle, setups []float64, w workload) (p50MS, cpuMS, setupS float64) {
	var p50, ctlP50 []float64
	var cpuS, ctlCPUS float64
	var ops, ctlOps int
	for _, c := range cycles {
		p50 = append(p50, c.P50*math.Pow(w.ctlP50/c.CtlP50, w.sens.p50))
		ctlP50 = append(ctlP50, c.CtlP50)
		cpuS, ctlCPUS, ops, ctlOps = cpuS+c.CPUS, ctlCPUS+c.CtlCPUS, ops+c.Ops, ctlOps+c.CtlOps
	}
	cpuMS = cpuS * 1000 / float64(ops) * math.Pow(w.ctlCPU/(ctlCPUS*1000/float64(ctlOps)), w.sens.cpu)
	return median(p50), cpuMS, median(setups) * math.Pow(w.ctlP50/median(ctlP50), w.sens.setup)
}

// scraped fills the per-layer counts and ratios that come from the
// server's own /metrics: deltas over the timed phase, and tier gauges
// once the store has settled after it.
func scraped(m map[string]float64, before, after, settled metricsText) {
	d := func(name string) float64 { return delta(before, after, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["collect.quarantined"] = d("btrace_collect_quarantined_total")
	m["collect.spilled"] = d("btrace_collect_spilled_total")
	m["overload.admitted_ratio"] = ratio(d("btrace_overload_admitted_total"), d("btrace_overload_seen_total"))
	m["distributor.replica_retries"] = d("btrace_distributor_replica_retries_total")
	m["distributor.hedges"] = d("btrace_distributor_hedges_total")
	m["store.group_commits"] = d("btrace_store_group_commits_total")
	m["store.fsync_count"] = d("btrace_store_fsync_ns_count")
	m["store.fsync_p50_ms"] = nanOr0(histQuantile(before, after, "btrace_store_fsync_ns", 0.5) / 1e6)
	m["store.append_p50_us"] = nanOr0(histQuantile(before, after, "btrace_store_append_ns", 0.5) / 1e3)
	hits, misses := d("btrace_store_block_cache_hits_total"), d("btrace_store_block_cache_misses_total")
	m["store.block_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["store.blocks_pruned"] = d("btrace_store_blocks_pruned_total")
	m["store.payload_skips"] = d("btrace_store_payload_skips_total")
	m["store.compactions"] = d("btrace_store_compactions_total")
	m["store.segments_frozen"] = d("btrace_store_segments_frozen_total")
	m["store.cold_bytes_written"] = d("btrace_store_cold_bytes_written_total")
	m["store.cold_ratio"] = ratio(settled["btrace_store_cold_bytes_written_total"], settled["btrace_store_cold_raw_bytes_total"])
	m["store.tier_hot_bytes"] = settled["btrace_store_tier_hot_bytes"]
	m["store.tier_cold_bytes"] = settled["btrace_store_tier_cold_bytes"]
	m["live.delivered"] = d("btrace_live_delivered_total")
	m["live.missed_ratio"] = ratio(d("btrace_live_missed_total"), d("btrace_live_matched_total"))
}

func nanOr0(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// pathNS sums the per-layer costs on the workload's ingest path, in
// ns per event.
func pathNS(w workload, m map[string]float64) float64 {
	if w.cluster {
		return m["tracer.decode_ns_per_event"] + m["distributor.ingest_ns_per_event"]
	}
	return m["tracer.decode_ns_per_event"] + m["collect.verify_ns_per_event"] +
		m["overload.filter_ns_per_event"] + m["store.append_ns_per_event"] + m["live.publish_ns_per_event"]
}

// attribution renders the table that sets the end-to-end CPU per event
// against the sum of the layers on its path.
func attribution(w workload, m map[string]float64) []string {
	if w.rate == 0 {
		return nil
	}
	e2e := m["serve.cpu_ns_per_event"]
	return []string{
		fmt.Sprintf("attribution: end-to-end %.0f ns/event of server CPU; layers on the path sum to %.0f ns/event;", e2e, pathNS(w, m)),
		fmt.Sprintf("             serve.residual_share = %.3f is what no layer accounts for (HTTP, queue hand-off, GC)", m["serve.residual_share"]),
	}
}

// assemble builds the result line from the metrics the specs name; a
// spec without a value is a bug in the benchmark, reported as one.
func assemble(res result, specs []metricSpec, m map[string]float64) result {
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s has no value\n", s.name)
			res.Failed++
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	res.Correct = res.Failed == 0
	return res
}

func (o *outcome) print(w *os.File) {
	mode, specs := "end-to-end, tracing off", endToEnd
	if o.traced {
		mode, specs = "per-layer, traced run", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s)\n", o.w.name, mode)
	for _, s := range specs {
		v := o.res.Metrics[s.name]
		line := fmt.Sprintf("%-34s %14.4f %-6s", s.name, v.Value, v.Unit)
		if n, ok := o.n[s.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if s.bound > 0 {
			line += fmt.Sprintf(" bound=%.2f", s.bound)
		}
		fmt.Fprintln(w, line)
	}
	ratio := float64(o.res.Failed) / float64(max(o.res.Attempted, 1))
	fmt.Fprintf(w, "%-34s %14.4f        attempted=%d failed=%d\n", "failed_ratio", ratio, o.res.Attempted, o.res.Failed)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
}

// probeReport is what bench/layers prints.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	} `json:"spans"`
}

// runLayers builds and runs the in-process layer probes on the same
// generated stream, after the server has stopped so that the two do
// not share the CPUs.
func (e *env) runLayers(ctx context.Context, w workload, seed int64) (map[string]float64, []span, error) {
	if e.layersBin == "" {
		bin, err := goBuild(ctx, e.root, e.benchDir, "./layers", "bench-layers")
		if err != nil {
			return nil, nil, err
		}
		e.layersBin = bin
	}
	dir, err := os.MkdirTemp(filepath.Join(e.root, buildDir), "layers-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(ctx, e.layersBin,
		"-seed", fmt.Sprint(seed), "-clients", fmt.Sprint(w.writers), "-ts-step", fmt.Sprint(w.tsStep), "-dir", dir)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	var rep probeReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, nil, fmt.Errorf("layer probes: bad report: %w", err)
	}
	var spans []span
	for i, s := range rep.Spans {
		spans = append(spans, span{Name: s.Name, Op: i, Track: probeTrack, Start: time.Unix(0, s.StartNS), End: time.Unix(0, s.EndNS)})
	}
	return rep.Metrics, spans, nil
}
