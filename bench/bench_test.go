package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// testScale runs every workload at 1/100 length: the smoke test exists to
// fail the moment a refactor breaks an exported function the benchmark
// calls or a metric BENCHMARK.json declares, not to measure.
const testScale = 0.01

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloadDefs[i].name)
		}
	}
	for _, p := range spec.Paths {
		if p != "bench" {
			t.Errorf("paths holds %q, the benchmark lives in bench", p)
		}
	}
}

// checkResultLine holds a run's last line to the driver's contract.
func checkResultLine(t *testing.T, r *report, want []metricSpec) {
	t.Helper()
	var line struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(r.resultLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("result line lacks a key: %s", r.resultLine())
	}
	if !*line.Correct || *line.Attempted < 1 || *line.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d; failures: %v", *line.Correct, *line.Attempted, *line.Failed, r.Failures)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, spec declares %d", len(line.Metrics), len(want))
	}
	for _, ms := range want {
		m, ok := line.Metrics[ms.Name]
		if !ok || m.Value == nil || m.Unit != ms.Unit {
			t.Errorf("metric %s missing or without value/unit %q", ms.Name, ms.Unit)
		}
	}
}

func TestTimedRunEveryWorkload(t *testing.T) {
	spec := testSpec(t)
	for i := range workloadDefs {
		w := &workloadDefs[i]
		t.Run(w.name, func(t *testing.T) {
			r := runTimed(w, 1, 0, testScale, time.Minute)
			r.finish(spec)
			checkResultLine(t, r, spec.EndToEnd)
			if r.Reps != w.subSeeds+1 {
				t.Errorf("%d repetitions, want one per sub-seed and one more (%d)", r.Reps, w.subSeeds+1)
			}
			for name, m := range r.Metrics {
				if want := map[bool]string{true: "sim", false: "host"}[strings.HasPrefix(name, "sim_") && name != "sim_iops_per_wall_s"]; m.Kind != want {
					t.Errorf("%s tagged %q, want %q", name, m.Kind, want)
				}
			}
		})
	}
}

func TestTracedRunEveryWorkload(t *testing.T) {
	spec := testSpec(t)
	seen := map[string]bool{}
	for i := range workloadDefs {
		w := &workloadDefs[i]
		t.Run(w.name, func(t *testing.T) {
			r, tr := runTraced(spec, w, 1, 0.5, testScale, time.Minute)
			r.finish(spec)
			checkResultLine(t, r, spec.PerLayer)
			for name, m := range r.Metrics {
				if m.Value != 0 {
					seen[name] = true
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := tr.writeJSONL(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte("\n")); n != len(tr.spans) || n < 10 {
				t.Errorf("%d span lines for %d spans", n, len(tr.spans))
			}
			for _, s := range tr.spans {
				if s.EndNS < s.StartNS || s.Parent >= s.ID {
					t.Errorf("span %+v is not closed under its parent", s)
				}
			}
		})
	}
	// Every kernel and probe answers on some workload even at 1/100
	// length; the counters that need a long run (training, harvesting,
	// migration, a sampled share for a small layer) are exempt.
	for _, ms := range spec.PerLayer {
		switch {
		case seen[ms.Name], strings.HasSuffix(ms.Name, ".cpu_pct"):
		case ms.Name == "core.train_windows", ms.Name == "gsb.harvests_per_vsec", ms.Name == "fleet.migrations",
			ms.Name == "runtime.gc_cycles", ms.Name == "sim_slo_viol_pct", ms.Name == "vssd.queue_delay_us_mean":
		default:
			t.Errorf("per-layer metric %s is 0 on every workload", ms.Name)
		}
	}
}

func TestSelftestRuns(t *testing.T) {
	var out bytes.Buffer
	// At 1/100 length the timing predictions are noise; what must hold is
	// that every check runs and the exactness checks pass.
	selftest(&out, testSpec(t), testScale)
	for _, want := range []string{"ok   sim_* repeat exactly", "ok   sim_* change under -seed 2", "ok   rack64: workers 1 and 2 render identical stats"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestStepUntilMatchesRunUntil drives two identical event cascades, one
// with Engine.RunUntil and one with stepUntil, and requires the same
// execution order, clock and event count — including events scheduled
// for the boundary instant by events running at it.
func TestStepUntilMatchesRunUntil(t *testing.T) {
	type world struct {
		eng *sim.Engine
		rng *sim.RNG
		log []int64
		n   int64
	}
	var spawn func(w *world, id int64)
	spawn = func(w *world, id int64) {
		w.eng.Schedule(sim.Time(w.rng.Intn(4)*500), func() {
			w.n++
			w.log = append(w.log, id*1_000_000+w.eng.Now())
			if w.n < 4000 {
				spawn(w, id+1)
				if w.rng.Intn(3) == 0 {
					spawn(w, id+1000)
				}
			}
		})
	}
	build := func() *world {
		w := &world{eng: sim.NewEngine(), rng: sim.NewRNG(7)}
		for i := int64(0); i < 5; i++ {
			spawn(w, i)
		}
		return w
	}
	a, b := build(), build()
	var counted int64
	for _, at := range []sim.Time{1000, 1500, 1500, 20_000, 1_000_000} {
		a.eng.RunUntil(at)
		before := b.n
		counted = stepUntil(b.eng, at)
		if counted != b.n-before {
			t.Fatalf("until %d: stepUntil counted %d events, %d ran", at, counted, b.n-before)
		}
		if a.eng.Now() != b.eng.Now() || a.n != b.n || a.eng.Pending() != b.eng.Pending() {
			t.Fatalf("until %d: now %d/%d events %d/%d pending %d/%d", at, a.eng.Now(), b.eng.Now(), a.n, b.n, a.eng.Pending(), b.eng.Pending())
		}
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("event %d differs: %d vs %d", i, a.log[i], b.log[i])
		}
	}
}

func TestGuardedWatchdogAndPanic(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := guarded(10*time.Millisecond, func() (repOut, error) { <-block; return repOut{}, nil })
	if !errors.Is(err, errWatchdog) {
		t.Errorf("blocked repetition: got %v, want the watchdog", err)
	}
	_, err = guarded(time.Second, func() (repOut, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panicking repetition: got %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	write := func(name string, scaleWall float64, jitter float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, w := range spec.Workloads {
			for i := 0; i < 6; i++ {
				r := &report{Workload: w.Name, Correct: true, Metrics: metricSet{}}
				for _, ms := range spec.EndToEnd {
					v := 100.0
					if ms.Name == "wall_s_per_vsec" {
						v = 100 * scaleWall * (1 + jitter*float64(i%3-1))
					}
					r.Metrics[ms.Name] = metricOut{Value: v, Unit: ms.Unit, Kind: "host"}
				}
				if err := r.appendJSONL(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("a.jsonl", 1, 0.001)
	for _, tc := range []struct {
		name    string
		path    string
		want    string
		allGood bool
	}{
		{"same", write("same.jsonl", 1.01, 0.001), "within", true},
		{"slower", write("slow.jsonl", 1.5, 0.001), "regressed", false},
		{"noisy", write("noisy.jsonl", 1, 0.4), "unresolved", false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, spec, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "wall_s_per_vsec") {
				row = line
				break
			}
		}
		if ok != tc.allGood || !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: ok=%v row %q, want verdict %q", tc.name, ok, row, tc.want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).siftDown":                   "sim",
		"repro/internal/flash.(*Device).complete.func1":           "flash",
		"repro/internal/nn.accumRowsAVX512":                       "nn",
		"repro/internal/lockfree.(*List[go.shape.int]).PushFront": "lockfree",
		"repro/internal/x.F[repro/internal/sim.T]":                "x",
		"runtime.mallocgc":                                        "runtime",
		"runtime/internal/atomic.Load":                            "runtime",
		"internal/runtime/maps.(*Map).getWithoutKey":              "runtime",
		"main.stepUntil":                                          "other",
		"math.Exp":                                                "other",
		"compress/flate.(*compressor).deflate":                    "other",
		"unknown":                                                 "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesDecodesOwnProfile(t *testing.T) {
	var sink float64
	shares, samples, err := cpuShares(func() error {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			sink += kernelHistAdd()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 5 {
		t.Skipf("only %d samples in 300 ms; the profiler is not delivering here", samples)
	}
	if shares["metrics"]+shares["other"] < 80 {
		t.Errorf("a histogram loop in the benchmark profiled as %v", shares)
	}
	_ = sink
}
