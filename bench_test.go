package fleetio

import (
	"io"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

// BenchmarkScenarios renders every entry of the harness scenario table
// (what `fleetbench -fig NAME` runs) at TestScenarios' short options, except
// "all", which is the others back to back, and "claims", which judges the
// paper's claims over eight seeds at EXPERIMENTS.md's budget whatever the
// options. It is a smoke pass and a convenient pprof target at
// -benchtime=1x: the paper figures and ladders share finished cells through
// the harness's process memo, so only the first render of a cell in a
// process runs it. Performance claims go
// through the repo benchmark, bench/run.sh (see docs/PERFORMANCE.md).
func BenchmarkScenarios(b *testing.B) {
	for _, sc := range harness.Scenarios() {
		if sc.Name == "all" || sc.Name == "claims" {
			continue
		}
		b.Run(sc.Name, func(b *testing.B) {
			opt := harness.DefaultOptions()
			opt.Window = 250 * sim.Millisecond
			opt.Warmup = 1 * sim.Second
			opt.Duration = 2 * sim.Second
			opt.BlocksPerChip = 32
			opt.FleetDevices = 8
			if sc.Pretrained {
				opt = harness.WithPretrained(opt)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Render(io.Discard, opt)
			}
		})
	}
}
