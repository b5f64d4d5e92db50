package harness

import (
	"testing"

	"repro/internal/obs"
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

// TestCohortScenarioChurns checks the cohort rack departs tenants, keeps
// its ledger balanced, and classifies live traffic.
func TestCohortScenarioChurns(t *testing.T) {
	opt := workloadTestOptions()
	opt.Duration = 3 * sim.Second
	st := cohortScenario(opt)
	if st.Departed == 0 {
		t.Fatalf("cohort rack departed nobody: %+v", st)
	}
	if len(st.Invariants) == 0 {
		t.Fatal("the cohort rack carries no invariant rows")
	}
	if failing := obs.Failing(st.Invariants); failing != "" {
		t.Fatalf("cohort rows fail: %s", failing)
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
