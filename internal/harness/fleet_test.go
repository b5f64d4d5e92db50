package harness

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sim"
)

func fleetTestOptions() Options {
	opt := DefaultOptions()
	opt.Duration = 1500 * sim.Millisecond
	opt.FleetDevices = 8
	return opt
}

// TestCohortScenarioDeterministicAcrossWorkers covers the departure path
// (Lifetime > 0) under the shard-worker pool.
func TestCohortScenarioDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		opt := fleetTestOptions()
		opt.Workers = workers
		st := cohortScenario(opt)
		var b strings.Builder
		st.Render(&b)
		if workers == 1 {
			if st.Departed == 0 {
				t.Fatalf("cohort scenario saw no departures: %+v", st)
			}
			want = b.String()
			continue
		}
		if b.String() != want {
			t.Fatalf("CohortScenario diverged at workers=%d:\n%s\nvs 1:\n%s",
				workers, b.String(), want)
		}
	}
}

// TestFleetScenarioLedger checks the roll-up the figure prints actually
// balances: every arrival accounted for, every started migration resolved.
func TestFleetScenarioLedger(t *testing.T) {
	for _, p := range fleet.Placements() {
		st := FleetScenario(p, fleetTestOptions())
		if !st.Balanced() {
			t.Errorf("%v: ledger imbalance: %+v", p, st)
		}
		if st.Devices != 8 {
			t.Errorf("%v: ran %d devices, want 8", p, st.Devices)
		}
		if st.Completed == 0 {
			t.Errorf("%v: no I/O completed", p)
		}
	}
}
