package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// hasNote reports whether some note contains every one of parts.
func hasNote(notes []string, parts ...string) bool {
	for _, n := range notes {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(n, p)
		}
		if all {
			return true
		}
	}
	return false
}

func TestDiffPassesWithinEnvelope(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{bench("BenchmarkX-8", 100, 0)}}
	newF := &File{Benchmarks: []Benchmark{bench("BenchmarkX-4", 120, 0)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "BenchmarkX +20.0% ns/op") {
		t.Fatalf("failures %v, notes %v", f, notes)
	}
}

// TestDiffFlagsRegression: a slower row is a note marked worse, not a
// failure — one run against a baseline from another moment cannot tell
// a regression from the box's speed.
func TestDiffFlagsRegression(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{bench("BenchmarkX", 100, 0)}}
	newF := &File{Benchmarks: []Benchmark{bench("BenchmarkX", 331, 0)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "+231.0% ns/op (100.0 -> 331.0) [worse]") {
		t.Fatalf("want one worse note and no failure, got failures %v, notes %v", f, notes)
	}
}

func TestDiffZeroAllocContract(t *testing.T) {
	res, err := compilePatterns("BenchmarkRead.*,BenchmarkObsOverhead/.*")
	if err != nil {
		t.Fatal(err)
	}
	newF := &File{Benchmarks: []Benchmark{
		bench("BenchmarkReadCursor-8", 50, 2),
		bench("BenchmarkObsOverhead/record-instrumented-8", 50, 1),
		bench("BenchmarkOther", 50, 7),
	}}
	_, f := diff("f.json", &File{}, newF, res)
	if len(f) != 2 {
		t.Fatalf("want 2 allocation failures, got %v", f)
	}
	for _, msg := range f {
		if !strings.Contains(msg, "contract is 0") {
			t.Fatalf("unexpected failure %q", msg)
		}
	}
}

func benchMB(name string, ns, mb float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, MBPerSec: mb}
}

func TestDiffFlagsThroughputDrop(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{benchMB("BenchmarkStoreAppendConcurrent", 30000, 900)}}
	newF := &File{Benchmarks: []Benchmark{benchMB("BenchmarkStoreAppendConcurrent", 31000, 500)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "-44.4% MB/s", "[worse]") {
		t.Fatalf("want one worse MB/s note and no failure, got failures %v, notes %v", f, notes)
	}
}

func TestDiffThroughputWithinEnvelopePasses(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{benchMB("BenchmarkStoreAppendConcurrent", 30000, 900)}}
	newF := &File{Benchmarks: []Benchmark{benchMB("BenchmarkStoreAppendConcurrent", 32000, 800)}}
	if _, f := diff("f.json", oldF, newF, nil); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestDiffThroughputGateSkipsMissingAndNoisy(t *testing.T) {
	// A baseline without MB/s gets no MB/s note; a fast benchmark's
	// large drop is noted like any other. Neither fails.
	oldF := &File{Benchmarks: []Benchmark{
		bench("BenchmarkNoRate", 5000, 0),
		benchMB("BenchmarkNoisy", 50, 900),
	}}
	newF := &File{Benchmarks: []Benchmark{
		benchMB("BenchmarkNoRate", 5000, 100),
		benchMB("BenchmarkNoisy", 50, 100),
	}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
	if hasNote(notes, "BenchmarkNoRate", "MB/s") || !hasNote(notes, "BenchmarkNoisy", "-88.9% MB/s") {
		t.Fatalf("notes %v", notes)
	}
}

func TestDiffNewAndVanishedBenchmarksDoNotFail(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{bench("BenchmarkGone", 10, 0)}}
	newF := &File{Benchmarks: []Benchmark{bench("BenchmarkFresh", 10, 0)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "BenchmarkFresh is new") || !hasNote(notes, "BenchmarkGone disappeared") {
		t.Fatalf("failures %v, notes %v", f, notes)
	}
}

func TestCanonicalStripsProcSuffix(t *testing.T) {
	if got := canonical("BenchmarkX/sub=1-16"); got != "BenchmarkX/sub=1" {
		t.Fatalf("canonical = %q", got)
	}
	if got := canonical("BenchmarkX"); got != "BenchmarkX" {
		t.Fatalf("canonical = %q", got)
	}
}

// TestCanonicalFoldsRepeatedRuns: a sub-benchmark run again in one
// process comes back as name#01, name#02, ...; folded, the rows of an
// interleaved pair line up pass by pass, as -count's rows do, and the
// ratio rule holds the median of the passes after the first.
func TestCanonicalFoldsRepeatedRuns(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkD/rf2-4shards-2":       "BenchmarkD/rf2-4shards",
		"BenchmarkD/rf2-4shards#01-2":    "BenchmarkD/rf2-4shards",
		"BenchmarkD/rf2-4shards#05":      "BenchmarkD/rf2-4shards",
		"BenchmarkD/direct-1shard#12-16": "BenchmarkD/direct-1shard",
	} {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
	dir := t.TempDir()
	var rows []Benchmark
	for k, ns := range []float64{400, 290, 280, 500, 270, 260} { // pass 1 and pass 4 slow
		suffix := ""
		if k > 0 {
			suffix = fmt.Sprintf("#%02d", k)
		}
		rows = append(rows, bench("BenchmarkD/rf2-4shards"+suffix+"-2", ns, 0), bench("BenchmarkD/direct-1shard"+suffix+"-2", 100, 0))
	}
	data, err := json.Marshal(File{Benchmarks: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	args := []string{"-old", dir, "-new", dir, "-max-ratio", "BenchmarkD/rf2-4shards<=3*BenchmarkD/direct-1shard"}
	if got := run(args, &stdout, &stderr); got != 0 || !strings.Contains(stdout.String(), "= 2.80x, limit 3x [ok] (median of 5 passes after the first)") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", got, stdout.String(), stderr.String())
	}
}

func TestCompilePatternsRejectsBadRegex(t *testing.T) {
	if _, err := compilePatterns("Benchmark[("); err == nil {
		t.Fatal("want error for invalid regex")
	}
}

func benchMetric(name string, ns float64, unit string, v float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, Metrics: map[string]float64{unit: v}}
}

func TestDiffFlagsCustomMetricRegression(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{benchMetric("BenchmarkRecordUnderOverload/storm", 2000, "p99-ns", 2000)}}
	newF := &File{Benchmarks: []Benchmark{benchMetric("BenchmarkRecordUnderOverload/storm", 2100, "p99-ns", 3000)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "+50.0% p99-ns (2000.0 -> 3000.0) [worse]") {
		t.Fatalf("want one worse p99-ns note and no failure, got failures %v, notes %v", f, notes)
	}
}

func TestDiffCustomMetricWithinEnvelopeAndNoiseFloor(t *testing.T) {
	// A custom metric 20% or 3x past its baseline: a note, never a
	// failure.
	oldF := &File{Benchmarks: []Benchmark{
		benchMetric("BenchmarkA", 2000, "p99-ns", 2000),
		benchMetric("BenchmarkB", 2000, "p99-ns", 200),
	}}
	newF := &File{Benchmarks: []Benchmark{
		benchMetric("BenchmarkA", 2000, "p99-ns", 2400),
		benchMetric("BenchmarkB", 2000, "p99-ns", 600),
	}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || !hasNote(notes, "BenchmarkA +20.0% p99-ns") || !hasNote(notes, "BenchmarkB +200.0% p99-ns") {
		t.Fatalf("failures %v, notes %v", f, notes)
	}
}

// TestDiffRateMetricDirection: metrics whose unit contains "/s" (the
// distributor's events/s) are rates — a drop is noted worse, growth
// better.
func TestDiffRateMetricDirection(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{
		benchMetric("BenchmarkDistributorIngest/rf2", 50000, "events/s", 100000),
		benchMetric("BenchmarkDistributorIngest/direct", 50000, "events/s", 100000),
	}}
	newF := &File{Benchmarks: []Benchmark{
		benchMetric("BenchmarkDistributorIngest/rf2", 50000, "events/s", 60000),
		benchMetric("BenchmarkDistributorIngest/direct", 50000, "events/s", 200000),
	}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 ||
		!hasNote(notes, "rf2 -40.0% events/s", "[worse]") ||
		!hasNote(notes, "direct +100.0% events/s", "[better]") {
		t.Fatalf("failures %v, notes %v", f, notes)
	}
}

func TestDiffCustomMetricMissingBaselineIgnored(t *testing.T) {
	oldF := &File{Benchmarks: []Benchmark{bench("BenchmarkA", 2000, 0)}}
	newF := &File{Benchmarks: []Benchmark{benchMetric("BenchmarkA", 2000, "p99-ns", 9999)}}
	notes, f := diff("f.json", oldF, newF, nil)
	if len(f) != 0 || hasNote(notes, "p99-ns") {
		t.Fatalf("metric without baseline: failures %v, notes %v", f, notes)
	}
}

// TestCheckRatiosMedianOfPasses: a rule over sides that ran several
// times (go test -count) drops the first pass and holds the median of
// the others to the limit — a slow first row and a one-off outlier pass,
// a side slow in most passes fails.
func TestCheckRatiosMedianOfPasses(t *testing.T) {
	rows := func(name string, ns ...float64) []Benchmark {
		var out []Benchmark
		for _, v := range ns {
			out = append(out, bench(name, v, 0))
		}
		return out
	}
	rule := []ratioRule{{num: "BenchmarkA", den: "BenchmarkB", limit: 1.1}}
	base := rows("BenchmarkB", 100, 100, 100, 100, 100, 100)
	for _, tc := range []struct {
		name  string
		num   []Benchmark
		ratio string
		fail  bool
	}{
		{"first pass and an outlier slow", rows("BenchmarkA", 150, 101, 104, 200, 103, 100), "= 1.03x", false},
		{"slow in most passes", rows("BenchmarkA", 100, 120, 104, 125, 112, 130), "= 1.20x", true},
		{"even count of passes", rows("BenchmarkA", 100, 102, 104, 106, 140), "= 1.05x", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			den := base[:len(tc.num)]
			notes, f := checkRatios(rule, map[string][]Benchmark{"BenchmarkA": tc.num, "BenchmarkB": den})
			if (len(f) > 0) != tc.fail || !hasNote(notes, tc.ratio, "passes after the first") {
				t.Fatalf("failures %v, notes %v; want %s, failing %v", f, notes, tc.ratio, tc.fail)
			}
		})
	}
}

// TestRunExitStatus drives the command over files on disk: a row far
// slower than its baseline exits 0 and prints its note; an allocation
// contract broken, a ratio rule exceeded or a ratio rule whose benchmark
// is missing exits 1.
func TestRunExitStatus(t *testing.T) {
	write := func(t *testing.T, dir string, bs ...Benchmark) {
		t.Helper()
		data, err := json.Marshal(File{Benchmarks: bs})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldDir := t.TempDir()
	write(t, oldDir, bench("BenchmarkA", 100, 0), bench("BenchmarkB", 100, 0))
	for _, tc := range []struct {
		name     string
		fresh    []Benchmark
		args     []string
		want     int
		wantNote string // substring of stdout
	}{
		{name: "regressed row", fresh: []Benchmark{bench("BenchmarkA", 300, 0), bench("BenchmarkB", 100, 0)},
			want: 0, wantNote: "BenchmarkA +200.0% ns/op (100.0 -> 300.0) [worse]"},
		{name: "allocation contract", fresh: []Benchmark{bench("BenchmarkA", 100, 1), bench("BenchmarkB", 100, 0)},
			args: []string{"-zero-allocs", "BenchmarkA"}, want: 1},
		{name: "ratio rule", fresh: []Benchmark{bench("BenchmarkA", 300, 0), bench("BenchmarkB", 100, 0)},
			args: []string{"-max-ratio", "BenchmarkA<=2*BenchmarkB"}, want: 1, wantNote: "= 3.00x, limit 2x [REGRESSION]"},
		{name: "missing rule benchmark", fresh: []Benchmark{bench("BenchmarkA", 100, 0)},
			args: []string{"-max-ratio", "BenchmarkA<=2*BenchmarkB"}, want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newDir := t.TempDir()
			write(t, newDir, tc.fresh...)
			var stdout, stderr strings.Builder
			args := append([]string{"-old", oldDir, "-new", newDir}, tc.args...)
			if got := run(args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantNote) {
				t.Fatalf("stdout lacks %q:\n%s", tc.wantNote, stdout.String())
			}
		})
	}
}
