package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a JSON-lines file written with --out, leaving out
// the runs whose loader made them invalid.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Valid {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// quartiles returns the first, second and third quartile of xs by the
// method Python's statistics.quantiles(xs, n=4) uses (exclusive), so
// that compare and the driver agree on a spread. xs needs two values.
func quartiles(xs []float64) (q [3]float64) {
	s := sortedCopy(xs)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		d := float64(i*(n+1)-j*4) / 4
		q[i-1] = s[j-1]*(1-d) + s[j]*d
	}
	return q
}

// verdict classes one (metric, workload) row. Worse is a positive
// change. A row whose baseline alone spreads wider than its bound
// cannot tell a regression from noise: it is unresolved, not unchanged.
func verdict(spec metricSpec, a, b [3]float64) (change float64, v string) {
	change = (b[1] - a[1]) / a[1]
	if spec.better == "higher" {
		change = -change
	}
	switch {
	case spec.bound == 0:
		return change, "-"
	case (a[2]-a[0])/a[1] > spec.bound:
		return change, "unresolved"
	case change > spec.bound:
		return change, "REGRESSED"
	case change < -spec.bound:
		return change, "improved"
	}
	return change, "unchanged"
}

// compare prints, for every (metric, workload) both result sets hold
// at least two valid runs of, each side's median and quartiles, the
// change of the median with its bound, and the verdict.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	va, vb := collect(a), collect(b)
	fmt.Fprintf(w, "%-15s %-32s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			xa, xb := va[key{wl.name, spec.name}], vb[key{wl.name, spec.name}]
			if len(xa) < 2 || len(xb) < 2 {
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			if qa[1] == 0 {
				continue // a count that stayed at zero has no relative change
			}
			change, v := verdict(spec, qa, qb)
			bound := "-"
			if spec.bound > 0 {
				bound = fmt.Sprintf("%.2f", spec.bound)
			}
			fmt.Fprintf(w, "%-15s %-32s %-6s %12.4f %25s %12.4f %25s %+7.1f%% %6s  %s\n",
				wl.name, spec.name, spec.unit,
				qa[1], fmt.Sprintf("[%.4f, %.4f]", qa[0], qa[2]),
				qb[1], fmt.Sprintf("[%.4f, %.4f]", qb[0], qb[2]),
				100*change, bound, v)
		}
	}
	return nil
}
