package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func workloadTestOptions() Options {
	opt := DefaultOptions()
	opt.Window = 250 * sim.Millisecond
	opt.Warmup = 1 * sim.Second
	opt.Duration = 2 * sim.Second
	opt.BlocksPerChip = 32
	return opt
}

// checkWorkloadLadder asserts, on the rendering TestScenarios/workloads
// already produced (and workloads.golden pins), the clustering contract of
// the temporal ladder: every level of every mix carries one workload-type
// label per tenant with at least one classified, the two-class mix types
// into two distinct clusters at the steady level, every tenant completes
// requests (a non-zero bandwidth and tail latency), and the ladder is not
// a no-op (each shaped level's numbers differ from steady's).
func checkWorkloadLadder(t *testing.T, rendering string) {
	t.Helper()
	levels := map[string]bool{}
	for _, l := range workloadLevels() {
		levels[l.Name] = true
	}
	var steady string // the steady row's numeric columns, per mix
	rows := 0
	for _, line := range strings.Split(rendering, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || !levels[f[0]] {
			continue
		}
		rows++
		level, numbers, labels := f[0], strings.Join(f[1:5], " "), strings.Split(f[5], ",")
		if len(labels) != 2 {
			t.Errorf("%s: %d type labels in %q", level, len(labels), line)
		}
		distinct := map[string]bool{}
		for _, l := range labels {
			if l != "n/a" {
				distinct[l] = true
			}
		}
		if len(distinct) == 0 {
			t.Errorf("%s: no tenant produced enough trace to classify: %q", level, line)
		}
		if bi, _ := strconv.ParseFloat(f[3], 64); bi <= 0 {
			t.Errorf("%s: the bandwidth tenant completed nothing: %q", level, line)
		}
		if p99, _ := strconv.ParseFloat(f[4], 64); p99 <= 0 {
			t.Errorf("%s: the latency tenant completed nothing: %q", level, line)
		}
		if level == "steady" {
			if len(distinct) < 2 {
				t.Errorf("steady level classified both tenants identically: %q", line)
			}
			steady = numbers
		} else if numbers == steady {
			t.Errorf("%s level is identical to steady: %q", level, line)
		}
	}
	if want := 2 * len(levels); rows != want {
		t.Errorf("parsed %d ladder rows, want %d:\n%s", rows, want, rendering)
	}
}

// TestCohortScenarioChurns checks the cohort rack departs tenants, keeps
// its ledger balanced, and classifies live traffic.
func TestCohortScenarioChurns(t *testing.T) {
	opt := workloadTestOptions()
	opt.Duration = 3 * sim.Second
	st := cohortScenario(opt)
	if st.Departed == 0 {
		t.Fatalf("cohort rack departed nobody: %+v", st)
	}
	if !st.Balanced() {
		t.Fatalf("cohort ledger imbalance: %+v", st)
	}
	if len(st.TypeCounts) == 0 {
		t.Fatalf("cohort rack classified no traffic: %+v", st)
	}
}

// TestReplayRecordsDriveAllTenants pins replay-from-file: with explicit
// records every tenant replays the same trace, so per-tenant completions
// converge regardless of profile.
func TestReplayRecordsDriveAllTenants(t *testing.T) {
	opt := workloadTestOptions()
	opt.ReplayRecords = workload.ByName("VDI-Web").SynthesizeTrace(20000, 1<<20, sim.NewRNG(9))
	opt.WorkloadShape = workload.ShapeReplay
	mix := Pair("YCSB", "TeraSort")
	slos := Calibrate(mix, opt)
	res := RunOne(mix, PolFleetIO, slos, opt)
	if res.Tenants[0].Completed == 0 || res.Tenants[1].Completed == 0 {
		t.Fatalf("replay tenants idle: %+v", res.Tenants)
	}
	// Same trace, same timestamps → identical issue counts; completions
	// may differ by inflight tail only.
	d := res.Tenants[0].Completed - res.Tenants[1].Completed
	if d < -50 || d > 50 {
		t.Fatalf("shared-trace tenants diverged: %d vs %d",
			res.Tenants[0].Completed, res.Tenants[1].Completed)
	}
}
