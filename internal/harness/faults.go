package harness

import (
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
)

// faultLevels is the off/light/heavy ladder of the fault scenario.
func faultLevels() []level {
	lvl := func(name string, cfg *fault.Config) level {
		return level{Name: name, Apply: func(o *Options) { o.Faults = cfg }}
	}
	light, heavy := fault.Light(), fault.Heavy()
	return []level{lvl("off", nil), lvl("light", &light), lvl("heavy", &heavy)}
}

// FaultStats reads the run's fault-recovery ledger off its device.
func (r *Run) FaultStats() device.FaultStats {
	// Settle the ledger before reading it: a program that failed right at
	// the stop boundary may not have completed its retry yet, and a GC
	// re-program can be waiting out a 1 ms allocation backoff. The Result
	// was collected when the run finished, so the measured figures are
	// untouched.
	r.Advance(r.end + 50*sim.Millisecond)
	return r.dev.FaultStats()
}

// figureFaults renders the fault scenario, g, for every mix: SLO
// preservation under injected NAND failures, with the injected/recovered
// ledger per level. Output is deterministic for a given seed at any worker count.
func figureFaults(w io.Writer, g grid, opt Options) {
	fmt.Fprintf(w, "== Fault scenarios: SLO preservation under injected NAND failures (seed=%d) ==\n", opt.Seed)
	head := fmt.Sprintf(" %10s %10s %9s %9s %9s %9s", "pfail", "efail", "retired", "remap", "retries", "gcRetry")
	ladder(w, g, opt, 6, "level", head, func(c cell) string {
		st := c.faults
		return fmt.Sprintf(" %10d %10d %9d %9d %9d %9d",
			st.Device.ProgramFails, st.Device.EraseFails,
			st.Retired, st.Remapped, st.WriteRetries,
			st.GCRetryPrograms+st.GCRetrySkips)
	})
}
