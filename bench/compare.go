package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports loads the untraced reports of a JSONL file (one full report
// per line, as -report appends them), grouped by workload.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// the same arithmetic the driver applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 when clamped: extrapolates, as Python does
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles applies the spec's bounds to two sets of runs, a (the
// parent) and b (the change), one row per (workload, end-to-end metric):
//
//	within      b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound and more than the spread
//	unresolved  the run-to-run spread is wider than the bound, so neither
//	            of the above can be said
//
// It reports whether every row is within.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	allWithin := true
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, ws := range spec.Workloads {
		ra, rb := a[ws.Name], b[ws.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s no runs on one side (a: %d, b: %d)\n", ws.Name, len(ra), len(rb))
			allWithin = false
			continue
		}
		sa, sb := ra[0].Stamp, rb[0].Stamp
		sa.Commit, sb.Commit = "", "" // the commits are what is being compared
		if sa != sb {
			fmt.Fprintf(w, "%-16s WARNING: machines differ (%+v vs %+v); host metrics are not comparable\n", ws.Name, sa, sb)
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(ra, ms.Name), values(rb, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s missing\n", ws.Name, ms.Name)
				allWithin = false
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "within"
			switch {
			case worse > ms.Bound && worse > sp:
				verdict = "regressed"
			case worse > ms.Bound || sp > ms.Bound:
				verdict = "unresolved"
			case ra[0].Metrics[ms.Name].Kind == "sim" && sameValues(va, vb):
				// Same seeds, same model: every run reproduced exactly.
				verdict = "within (exact)"
			}
			if verdict == "regressed" || verdict == "unresolved" {
				allWithin = false
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				ws.Name, ms.Name, ma, mb, 100*worse, 100*sp, 100*ms.Bound, verdict)
		}
	}
	return allWithin, nil
}

// sameValues reports whether two sets hold the same values, in any order.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func values(rs []*report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}
