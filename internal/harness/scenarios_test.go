package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

// wallClock names the scenarios whose rendering prints §4.7's host
// durations and so cannot be pinned byte for byte ("all" ends with the
// overhead table; its figures are the other entries).
var wallClock = map[string]bool{"all": true, "overhead": true}

// TestScenarios is the one determinism-and-smoke test for every entry of
// the scenario table: rendered at short virtual durations with one and
// four workers, both renderings must equal the checked-in golden and
// match the entry's smoke regexp. Regenerate (only for an intentional
// model change) with:
//
//	go test ./internal/harness/ -run TestScenarios -update
func TestScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		if wallClock[sc.Name] {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			opt := DefaultOptions()
			opt.Window = 250 * sim.Millisecond
			opt.Warmup = 1 * sim.Second
			opt.Duration = 2 * sim.Second
			opt.BlocksPerChip = 32
			opt.FleetDevices = 8
			if sc.Pretrained {
				opt = WithPretrained(opt)
			}
			render := func(workers int) string {
				opt.Workers = workers
				var b strings.Builder
				sc.Render(&b, opt)
				return b.String()
			}
			got := render(1)
			if par := render(4); par != got {
				t.Fatalf("output differs between 1 and 4 workers:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", got, par)
			}
			if !regexp.MustCompile(sc.Smoke).MatchString(got) {
				t.Errorf("output does not match smoke regexp %q:\n%s", sc.Smoke, got)
			}
			if sc.Name == "workloads" {
				checkWorkloadLadder(t, got)
			}
			golden := filepath.Join("testdata", "scenarios", sc.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
