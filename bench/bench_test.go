package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 1: 10, 0.01: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// fakeClock is a clock only the test moves: SleepUntil jumps to the
// target, and an operation "takes time" by advancing it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := &conn{clk: clk}
	p := pacer{start: clk.now, period: 10 * time.Millisecond}
	// Each operation takes 25 ms on a 10 ms schedule, so the connection
	// falls behind: operation k is due at 10k ms but starts at 25k ms.
	c.drive(context.Background(), p, 0, 1, 4, func(k int, from time.Time) error {
		if want := p.start.Add(time.Duration(k) * p.period); !from.Equal(want) {
			t.Errorf("op %d counts from %v, want its due time %v", k, from, want)
		}
		clk.now = clk.now.Add(25 * time.Millisecond)
		return nil
	})
	want := []float64{25, 40, 55, 70} // completion minus due time, not minus send time
	if len(c.lat) != len(want) {
		t.Fatalf("%d samples, want %d", len(c.lat), len(want))
	}
	for k, w := range want {
		if c.lat[k].ms != w {
			t.Errorf("op %d latency = %v ms, want %v", k, c.lat[k].ms, w)
		}
		if c.lateMS[k] != 0 {
			t.Errorf("op %d generator lateness = %v, want 0: waiting for the connection is the server's delay", k, c.lateMS[k])
		}
	}
}

func TestGeneratorLatenessIsNotLatency(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := &conn{clk: clk}
	p := pacer{start: clk.now.Add(-3 * time.Millisecond), period: time.Second}
	// The loader wakes 3 ms after the due time with the connection idle.
	c.drive(context.Background(), p, 0, 1, 1, func(int, time.Time) error {
		clk.now = clk.now.Add(2 * time.Millisecond)
		return nil
	})
	if c.lateMS[0] != 3 || c.lat[0].ms != 2 {
		t.Errorf("lateness %v ms, latency %v ms; want 3 and 2", c.lateMS[0], c.lat[0].ms)
	}
}

func TestClosedLoopStopsAtEnd(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := &conn{clk: clk}
	n := 0
	c.drive(context.Background(), pacer{end: clk.now.Add(100 * time.Millisecond)}, 0, 1, 1<<30, func(int, time.Time) error {
		n++
		clk.now = clk.now.Add(30 * time.Millisecond)
		return nil
	})
	if n != 4 || c.attempted != 4 {
		t.Errorf("ran %d operations (%d attempted), want 4: none starts after the end", n, c.attempted)
	}
}

func TestControlCancelsTheBox(t *testing.T) {
	// On a quiet box the control shows its nominal figures. A slow phase
	// that stretches the control by s stretches this server's figures by
	// s^sens; it must not move the result, and a stall in one cycle on the
	// server's side only must not move the latency either.
	for _, sens := range []float64{1, 0.5, 0} {
		w := workload{ctlP50: 0.3, ctlCPU: 0.2}
		w.sens.p50, w.sens.cpu, w.sens.setup = sens, sens, sens
		var quiet, drifting []cycle
		var quietSetups, driftingSetups []float64
		for i := 0; i < 9; i++ {
			quiet = append(quiet, cycle{P50: 0.6, CPUS: 0.06, Ops: 100, CtlP50: 0.3, CtlCPUS: 0.01, CtlOps: 50})
			quietSetups = append(quietSetups, 0.05)
			s := 1.3
			own := math.Pow(s, sens)
			drifting = append(drifting, cycle{P50: 0.6 * own, CPUS: 0.06 * own, Ops: 100, CtlP50: 0.3 * s, CtlCPUS: 0.01 * s, CtlOps: 50})
			driftingSetups = append(driftingSetups, 0.05*own)
		}
		drifting[4].P50 *= 10
		for name, c := range map[string]struct {
			cycles []cycle
			setups []float64
		}{"quiet": {quiet, quietSetups}, "slow": {drifting, driftingSetups}} {
			p50, cpu, setup := onQuietBox(c.cycles, c.setups, w)
			if math.Abs(p50-0.6) > 1e-9 || math.Abs(cpu-0.6) > 1e-9 || math.Abs(setup-0.05) > 1e-9 {
				t.Errorf("sens %v, %s box: op_p50_ms = %v, server_cpu_ms_per_op = %v, setup_s = %v; want 0.6, 0.6, 0.05", sens, name, p50, cpu, setup)
			}
		}
	}
}

const metricsSample = `# HELP btrace_store_events events
# TYPE btrace_store_events gauge
btrace_store_events 1536
btrace_overload_tenant_seen_total{tenant="a b"} 7
btrace_store_fsync_ns_bucket{le="1000"} 0
btrace_store_fsync_ns_bucket{le="2500"} 10
btrace_store_fsync_ns_bucket{le="5000"} 30
btrace_store_fsync_ns_bucket{le="+Inf"} 40
btrace_store_fsync_ns_count 40
`

func TestMetricsScraper(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(metricsSample))
	if err != nil {
		t.Fatal(err)
	}
	if m["btrace_store_events"] != 1536 || m[`btrace_overload_tenant_seen_total{tenant="a b"}`] != 7 {
		t.Errorf("scraped %v", m)
	}
	// 40 samples: the 20th is halfway through the (2500, 5000] bucket's 20.
	if got := histQuantile(metricsText{}, m, "btrace_store_fsync_ns", 0.5); got != 3750 {
		t.Errorf("histogram p50 = %v, want 3750", got)
	}
	if got := histQuantile(m, m, "btrace_store_fsync_ns", 0.5); !math.IsNaN(got) {
		t.Errorf("histogram p50 without new samples = %v, want NaN", got)
	}
	if _, err := parseMetrics(strings.NewReader("no_value\n")); err == nil {
		t.Error("a line without a value should be refused")
	}
}

func TestCountCSV(t *testing.T) {
	rows, first, last, err := countCSV(strings.NewReader("stamp,ts,core\n7,1,0\n8,2,0\n9,3,1\n"))
	if err != nil || rows != 3 || first != 7 || last != 9 {
		t.Errorf("rows=%d first=%d last=%d err=%v", rows, first, last, err)
	}
	if rows, _, _, err := countCSV(strings.NewReader("stamp,ts,core\n")); err != nil || rows != 0 {
		t.Errorf("empty result: rows=%d err=%v", rows, err)
	}
	if _, _, _, err := countCSV(strings.NewReader("<html>")); err == nil {
		t.Error("a body without the CSV header should be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{1, 2}); q != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", q)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "m", better: "lower", bound: 0.10}
	for _, c := range []struct {
		a, b [3]float64
		want string
	}{
		{[3]float64{99, 100, 101}, [3]float64{99, 105, 110}, "unchanged"},
		{[3]float64{99, 100, 101}, [3]float64{119, 120, 121}, "REGRESSED"},
		{[3]float64{99, 100, 101}, [3]float64{79, 80, 81}, "improved"},
		// A baseline spread of 30% cannot resolve a 10% bound either way.
		{[3]float64{85, 100, 115}, [3]float64{99, 100, 101}, "unresolved"},
		{[3]float64{85, 100, 115}, [3]float64{139, 140, 141}, "unresolved"},
	} {
		if _, got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := metricSpec{name: "m", better: "higher", bound: 0.10}
	if _, got := verdict(higher, [3]float64{99, 100, 101}, [3]float64{79, 80, 81}); got != "REGRESSED" {
		t.Errorf("a drop in a higher-is-better metric = %s, want REGRESSED", got)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to what the code prints: the
// same workloads with the same reasons, the same metric names, units,
// directions and bounds, all within the driver's naming rules.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the code", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, rows []row, specs []metricSpec) {
		if len(rows) != len(specs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(rows), kind, len(specs))
		}
		for i, s := range specs {
			name(s.name)
			got := rows[i]
			if !unitRE.MatchString(s.unit) || (s.better != "lower" && s.better != "higher") {
				t.Errorf("%s: bad unit %q or direction %q", s.name, s.unit, s.better)
			}
			if got.Name != s.name || got.Unit != s.unit || got.Better != s.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the code", kind, i, got, s)
			}
			switch {
			case s.bound == 0 && got.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", s.name)
			case s.bound > 0 && (got.Bound == nil || *got.Bound != s.bound || s.bound > 0.25):
				t.Errorf("%s: bound %v in the code, %v in BENCHMARK.json, at most 0.25 allowed", s.name, s.bound, got.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
}
