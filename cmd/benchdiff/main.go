// Command benchdiff checks a fresh set of bench2json files against the
// contracts one run can show, and notes how it moved against a baseline
// set. CI's bench-smoke job copies the committed BENCH_*.json baselines
// aside, regenerates them with `make bench`, and runs benchdiff to gate
// the push:
//
//	benchdiff -old .benchbase -new . \
//	  -zero-allocs 'BenchmarkReadPathCursor,BenchmarkObsOverhead/.*' \
//	  -max-ratio 'BenchmarkColdQuery<=2*BenchmarkStoreQueryWide'
//
// A benchmark fails the gate if its name matches a -zero-allocs pattern
// and its allocs/op is not zero (the read-path and obs fast-path
// contracts). Its ns/op, MB/s and custom metrics are compared with the
// baseline's as notes, each marked better or worse, and never fail: a
// baseline is recorded at another moment, often on other hardware and
// at another iteration count, so one run's distance from it says how the
// numbers moved, not that the code regressed. Benchmarks present on only
// one side are noted the same way.
//
// -max-ratio rules gate one benchmark against another within the same
// fresh run ("A<=k*B": A's ns/op may not exceed k times B's). Both sides
// come from the new run on the same machine, so unlike the baseline
// comparison these ratios are hardware-independent contracts — e.g. the
// cold-tier query staying within 2x of the all-hot query. A rule whose
// benchmarks are missing from the run fails, so the contract cannot rot
// away silently. When both sides were run several times in one process
// (go test -count N), the rule pairs their k-th rows into passes, drops
// the first pass (its first row paid for starting the process) and holds
// the median of the other passes' ratios to the limit, so neither the
// first-run penalty nor a one-off outlier decides it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Benchmark mirrors cmd/bench2json's per-benchmark record.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File mirrors cmd/bench2json's document.
type File struct {
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: notes go to stdout, failures to stderr, and the
// result is the exit status — 0, 1 when a contract fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		oldDir     = fs.String("old", "", "directory with baseline BENCH_*.json files")
		newDir     = fs.String("new", ".", "directory with freshly generated BENCH_*.json files")
		zeroAllocs = fs.String("zero-allocs", "", "comma-separated name regexes that must stay at 0 allocs/op")
		maxRatio   = fs.String("max-ratio", "", "comma-separated 'A<=k*B' rules: benchmark A's ns/op must stay within k times B's, both from the new run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldDir == "" {
		fmt.Fprintln(stderr, "benchdiff: -old directory required")
		return 2
	}
	names := fs.Args()
	if len(names) == 0 {
		matches, err := filepath.Glob(filepath.Join(*newDir, "BENCH_*.json"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintln(stderr, "benchdiff: no BENCH_*.json files found in", *newDir)
			return 2
		}
		for _, m := range matches {
			names = append(names, filepath.Base(m))
		}
	}
	zeroRes, err := compilePatterns(*zeroAllocs)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	ratios, err := parseRatios(*maxRatio)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	var notes, failures []string
	fresh := map[string][]Benchmark{}
	for _, name := range names {
		newFile, err := load(filepath.Join(*newDir, name))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for _, b := range newFile.Benchmarks {
			name := canonical(b.Name)
			fresh[name] = append(fresh[name], b)
		}
		oldFile, err := load(filepath.Join(*oldDir, name))
		if err != nil {
			// No baseline (first commit of this file): allocation
			// contracts still apply, notes cannot.
			notes = append(notes, fmt.Sprintf("%s: no baseline (%v); checking allocation contracts only", name, err))
			oldFile = &File{}
		}
		n, f := diff(name, oldFile, newFile, zeroRes)
		notes, failures = append(notes, n...), append(failures, f...)
	}
	n, f := checkRatios(ratios, fresh)
	notes, failures = append(notes, n...), append(failures, f...)

	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: every allocation and ratio contract holds")
	return 0
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

func compilePatterns(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		re, err := regexp.Compile("^(" + p + ")$")
		if err != nil {
			return nil, fmt.Errorf("bad -zero-allocs pattern %q: %w", p, err)
		}
		res = append(res, re)
	}
	return res, nil
}

// ratioRule is one parsed -max-ratio entry: num's ns/op must stay
// within limit times den's.
type ratioRule struct {
	num, den string
	limit    float64
}

func parseRatios(s string) ([]ratioRule, error) {
	var rules []ratioRule
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(p, "<=")
		if !ok {
			return nil, fmt.Errorf("bad -max-ratio rule %q: want 'A<=k*B'", p)
		}
		ks, den, ok := strings.Cut(rhs, "*")
		if !ok {
			return nil, fmt.Errorf("bad -max-ratio rule %q: want 'A<=k*B'", p)
		}
		var k float64
		if _, err := fmt.Sscanf(strings.TrimSpace(ks), "%g", &k); err != nil || k <= 0 {
			return nil, fmt.Errorf("bad -max-ratio limit in %q", p)
		}
		rules = append(rules, ratioRule{
			num: strings.TrimSpace(lhs), den: strings.TrimSpace(den), limit: k,
		})
	}
	return rules, nil
}

// checkRatios evaluates the -max-ratio rules against the fresh run's
// rows, in run order per name, returning a note per rule and the
// failures. A missing benchmark is a failure: a contract that silently
// stops being measured is worse than one that fails.
func checkRatios(rules []ratioRule, fresh map[string][]Benchmark) (notes, failures []string) {
	for _, r := range rules {
		num, den := fresh[r.num], fresh[r.den]
		ratio, passes := passRatio(num, den)
		if passes == 0 {
			failures = append(failures,
				fmt.Sprintf("ratio: %s<=%g*%s not measurable (missing benchmark in the new run)",
					r.num, r.limit, r.den))
			continue
		}
		how := fmt.Sprintf("%.0f vs %.0f ns/op", num[0].NsPerOp, den[0].NsPerOp)
		if passes > 1 {
			how = fmt.Sprintf("median of %d passes after the first", passes-1)
		}
		verdict := "ok"
		if ratio > r.limit {
			verdict = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("ratio: %s is %.2fx of %s (%s), limit %gx", r.num, ratio, r.den, how, r.limit))
		}
		note := fmt.Sprintf("ratio: %s / %s = %.2fx, limit %gx [%s]", r.num, r.den, ratio, r.limit, verdict)
		if passes > 1 {
			note += " (" + how + ")"
		}
		notes = append(notes, note)
	}
	return notes, failures
}

// passRatio is num's ns/op over den's. With one row a side it is the
// plain ratio. With several, the k-th rows of both sides make pass k, and
// the ratio is the median over every pass but the first. passes is 0 when
// the rule cannot be measured.
func passRatio(num, den []Benchmark) (ratio float64, passes int) {
	passes = min(len(num), len(den))
	if passes == 0 {
		return 0, 0
	}
	ratios := make([]float64, 0, passes)
	for k := 0; k < passes; k++ {
		if den[k].NsPerOp <= 0 {
			return 0, 0
		}
		ratios = append(ratios, num[k].NsPerOp/den[k].NsPerOp)
	}
	if passes == 1 {
		return ratios[0], 1
	}
	rest := ratios[1:]
	sort.Float64s(rest)
	m := len(rest) / 2
	if len(rest)%2 == 0 {
		return (rest[m-1] + rest[m]) / 2, passes
	}
	return rest[m], passes
}

// canonical strips the trailing -GOMAXPROCS suffix go test appends to
// benchmark names, so baselines recorded on machines with different core
// counts still line up, and then the #NN go test gives a sub-benchmark
// name run again in one process: a benchmark that interleaves its
// variants pass by pass lists each variant's passes under one name, in
// run order, as -count does.
var (
	procSuffix   = regexp.MustCompile(`-\d+$`)
	repeatSuffix = regexp.MustCompile(`#\d+$`)
)

func canonical(name string) string {
	return repeatSuffix.ReplaceAllString(procSuffix.ReplaceAllString(name, ""), "")
}

// sortedKeys returns m's keys in order, for deterministic report output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diff compares one file pair: the notes on how each benchmark moved
// against the baseline, and the allocation-contract failures.
func diff(file string, oldF, newF *File, zeroRes []*regexp.Regexp) (notes, failures []string) {
	old := make(map[string]Benchmark, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		old[canonical(b.Name)] = b
	}
	fresh := make(map[string]bool, len(newF.Benchmarks))
	for _, nb := range newF.Benchmarks {
		name := canonical(nb.Name)
		fresh[name] = true
		for _, re := range zeroRes {
			if re.MatchString(name) && nb.AllocsPerOp != 0 {
				failures = append(failures,
					fmt.Sprintf("%s: %s allocates %.0f allocs/op, contract is 0", file, name, nb.AllocsPerOp))
			}
		}
		ob, ok := old[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: %s is new (%.0f ns/op), no baseline to compare", file, name, nb.NsPerOp))
			continue
		}
		if ob.NsPerOp > 0 {
			notes = append(notes, note(file, name, "ns/op", ob.NsPerOp, nb.NsPerOp))
		}
		// Units reported via b.ReportMetric, in name order.
		for _, unit := range sortedKeys(nb.Metrics) {
			if ov := ob.Metrics[unit]; ov > 0 {
				notes = append(notes, note(file, name, unit, ov, nb.Metrics[unit]))
			}
		}
		if ob.MBPerSec > 0 && nb.MBPerSec > 0 {
			notes = append(notes, note(file, name, "MB/s", ob.MBPerSec, nb.MBPerSec))
		}
	}
	for _, ob := range oldF.Benchmarks {
		if name := canonical(ob.Name); !fresh[name] {
			notes = append(notes, fmt.Sprintf("%s: %s disappeared from the new run", file, name))
		}
	}
	return notes, failures
}

// note is one metric's move against its baseline ov > 0. A unit with
// "/s" in it (MB/s, the distributor's events/s) is a rate, worse when it
// falls; every other unit (ns/op, the overload benchmark's p99-ns) is
// worse when it grows.
func note(file, name, unit string, ov, nv float64) string {
	change := (nv - ov) / ov * 100
	worse := change > 0
	if strings.Contains(unit, "/s") {
		worse = change < 0
	}
	verdict := "better"
	switch {
	case change == 0:
		verdict = "same"
	case worse:
		verdict = "worse"
	}
	return fmt.Sprintf("%s: %s %+.1f%% %s (%.1f -> %.1f) [%s]", file, name, change, unit, ov, nv, verdict)
}
