package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// stamp identifies the machine and build behind a result, so that two
// results are only ever compared when they share one.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func newStamp(repoDir string) stamp {
	s := stamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "-C", repoDir, "describe", "--always", "--dirty").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

// metricOut is one reported metric. Kind says which clock it was read
// from: "host" values are wall time or memory of this machine and carry
// its noise; "sim" values are the modelled device's and repeat exactly at
// a fixed seed, so identical sim values across two commits mean the model
// did not change, not that the metric is dead.
type metricOut struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind,omitempty"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// subReport is one sub-seed's share of a timed run.
type subReport struct {
	Seed      int64     `json:"seed"`
	WallS     []float64 `json:"wall_s"`
	Completed int64     `json:"completed"`
	UtilPct   float64   `json:"sim_util_pct"`
	LsP99Ms   float64   `json:"sim_ls_p99_ms"`
}

// metricSet collects values by name; emit checks them against the spec.
type metricSet map[string]metricOut

func (m metricSet) host(name string, v float64) { m[name] = metricOut{Value: v, Kind: "host"} }
func (m metricSet) sim(name string, v float64)  { m[name] = metricOut{Value: v, Kind: "sim"} }

// report is the full result of one run: the contract's four keys plus
// everything a reader needs to trust or reproduce the numbers.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Traced   bool           `json:"traced"`
	Seconds  float64        `json:"seconds"`
	Stamp    stamp          `json:"stamp"`
	Params   map[string]any `json:"params"`
	SubSeeds []int64        `json:"sub_seeds"`
	// Reps is the number of timed repetitions; RepWallS their walls in
	// execution order (repetition i ran sub-seed i mod len(SubSeeds)).
	Reps     int       `json:"reps"`
	RepWallS []float64 `json:"rep_wall_s"`
	// SubRuns are the per-sub-seed walls and simulated results the
	// metrics aggregate.
	SubRuns []subReport `json:"sub_runs,omitempty"`
	// Samples are the sample counts behind the percentile metrics.
	Samples map[string]int64 `json:"samples,omitempty"`
	// Failures lists every output check that failed; empty when Correct.
	Failures  []string  `json:"failures,omitempty"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// finish copies unit, direction and bound from the spec onto the
// collected metrics and insists the two name sets are equal: a metric the
// spec declares but the run did not produce (or the reverse) is a failure.
func (r *report) finish(spec *benchSpec) {
	want := spec.EndToEnd
	if r.Traced {
		want = spec.PerLayer
	}
	declared := map[string]bool{}
	for _, ms := range want {
		declared[ms.Name] = true
		m, ok := r.Metrics[ms.Name]
		if !ok {
			r.fail("metric %s declared in BENCHMARK.json but not measured", ms.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", ms.Name, m.Value)
			m.Value = 0
		} else if !r.Traced && m.Value <= 0 {
			r.fail("end-to-end metric %s is %v, must be positive", ms.Name, m.Value)
		}
		m.Unit, m.Better, m.Bound = ms.Unit, ms.Better, ms.Bound
		r.Metrics[ms.Name] = m
	}
	for name := range r.Metrics {
		if !declared[name] {
			r.fail("metric %s measured but not declared in BENCHMARK.json", name)
		}
	}
	sort.Strings(r.Failures)
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = len(r.Failures) == 0
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		if m.Unit != "" { // declared in the spec
			out.Metrics[name] = mv{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can do this, and finish rejects those
	}
	return string(b)
}

// appendJSONL appends the full report as one line to path.
func (r *report) appendJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
