package harness

import (
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

// TestWorkloadScenarioTypesDistinct checks the clustering contract of the
// issue (temporal shapes still produce workload-type labels, and a
// two-class mix classifies into at least two distinct types) and that the
// ladder is not a no-op (each shaped level's traffic differs from steady).
// One scenario run covers both: a full ladder is 5 simulations.
func TestWorkloadScenarioTypesDistinct(t *testing.T) {
	rows := WorkloadScenario(Pair("YCSB", "TeraSort"), workloadTestOptions())
	if len(rows) != len(WorkloadLevels()) {
		t.Fatalf("got %d levels", len(rows))
	}
	for _, row := range rows {
		labels := row.TypeLabels()
		if len(labels) != 2 {
			t.Fatalf("%s: %d type labels", row.Level, len(labels))
		}
		labeled := 0
		distinct := map[string]bool{}
		for _, l := range labels {
			if l != "n/a" {
				labeled++
				distinct[l] = true
			}
		}
		if labeled == 0 {
			t.Fatalf("%s: no tenant produced enough trace to classify", row.Level)
		}
		if row.Level == "steady" && len(distinct) < 2 {
			t.Fatalf("steady level classified both tenants identically: %v", labels)
		}
		if row.Result.Tenants[0].Completed == 0 || row.Result.Tenants[1].Completed == 0 {
			t.Fatalf("%s: a tenant completed nothing", row.Level)
		}
	}

	byLevel := map[string]Result{}
	for _, row := range rows {
		byLevel[row.Level] = row.Result
	}
	steady := byLevel["steady"]
	for _, level := range []string{"diurnal", "bursty", "replay"} {
		r := byLevel[level]
		same := true
		for i := range r.Tenants {
			if r.Tenants[i].Completed != steady.Tenants[i].Completed {
				same = false
			}
		}
		if same {
			t.Fatalf("%s level completed identical request counts to steady", level)
		}
	}
}

// TestCohortScenarioChurns checks the cohort rack departs tenants, keeps
// its ledger balanced, and classifies live traffic.
func TestCohortScenarioChurns(t *testing.T) {
	opt := workloadTestOptions()
	opt.Duration = 3 * sim.Second
	st := CohortScenario(opt)
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
