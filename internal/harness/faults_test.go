package harness

import (
	"testing"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
)

func faultTestOptions() Options {
	opt := DefaultOptions()
	opt.Window = 250 * sim.Millisecond
	opt.Warmup = 1 * sim.Second
	opt.Duration = 2 * sim.Second
	opt.BlocksPerChip = 32
	return opt
}

// TestFaultRecoveryInvariant runs a heavy-fault scenario and checks that
// every injected failure is visibly recovered: each program fail is
// remapped exactly once and resolved by exactly one retry/skip, and each
// erase fail retires its block.
func TestFaultRecoveryInvariant(t *testing.T) {
	opt := faultTestOptions()
	heavy := fault.Heavy()
	opt.Faults = &heavy
	mix := Pair("VDI-Web", "TeraSort")
	slos := Calibrate(mix, opt)
	r := Measure(mix, PolFleetIO, slos, opt)
	res, st := r.Result, r.FaultStats()

	if st.Device.ProgramFails == 0 {
		t.Fatal("heavy fault profile injected no program failures")
	}
	if !st.Balanced() {
		t.Fatalf("recovery imbalance: injected=%d remapped=%d recovered=%d (writeRetries=%d gcRetry=%d gcSkip=%d)",
			st.Device.ProgramFails, st.Remapped, st.Recovered(),
			st.WriteRetries, st.GCRetryPrograms, st.GCRetrySkips)
	}
	if st.Retired < st.Device.EraseFails {
		t.Fatalf("retired blocks %d < injected erase fails %d", st.Retired, st.Device.EraseFails)
	}
	for _, tr := range res.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("tenant %s completed no requests under faults", tr.Workload)
		}
	}
}

// TestFaultsDisabledMatchesBaseline pins the zero-cost contract at the
// harness level: a nil fault config leaves an all-zero fault ledger, and
// settling that ledger does not disturb the collected Result.
func TestFaultsDisabledMatchesBaseline(t *testing.T) {
	opt := faultTestOptions()
	mix := Pair("VDI-Web", "TeraSort")
	slos := Calibrate(mix, opt)
	base := RunOne(mix, PolFleetIO, slos, opt)
	r := Measure(mix, PolFleetIO, slos, opt)
	st, res := r.FaultStats(), r.Result
	if st != (device.FaultStats{}) {
		t.Fatalf("fault ledger non-zero without an injector: %+v", st)
	}
	if renderResults([]Result{base}) != renderResults([]Result{res}) {
		t.Fatalf("fault-free Measure diverged from RunOne after FaultStats:\n%s\nvs\n%s",
			renderResults([]Result{base}), renderResults([]Result{res}))
	}
}
