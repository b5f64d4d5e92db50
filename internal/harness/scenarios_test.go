package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unpinned names the scenarios TestScenarios does not render: "all" and
// "overhead" print §4.7's host durations and so cannot be pinned byte for
// byte ("all"'s figures are the other entries), and "claims" judges the
// paper's claims at EXPERIMENTS.md's budget over eight seeds.
var unpinned = map[string]bool{"all": true, "overhead": true, "claims": true}

// TestScenarios is the one determinism test for every entry of the
// scenario table: rendered at short virtual durations with one and four
// workers, both renderings must equal the checked-in golden, and every
// claims row that reads the entry must hold on the runs just rendered.
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/harness/ -run TestScenarios -update
func TestScenarios(t *testing.T) {
	rows := scenarioClaims()
	for _, sc := range Scenarios() {
		if unpinned[sc.Name] {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				var b strings.Builder
				sc.Render(&b, sc.rendered().options(workers))
				return b.String()
			}
			got := render(1)
			if par := render(4); par != got {
				t.Fatalf("output differs between 1 and 4 workers:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", got, par)
			}
			var mine []claim
			for _, c := range rows {
				if c.figure == "-fig "+sc.Name {
					mine = append(mine, c)
				}
			}
			if len(mine) == 0 {
				t.Errorf("no claims row reads scenario %s", sc.Name)
			}
			checkVerdicts(t, judge(mine, 1))
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
