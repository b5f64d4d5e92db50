package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/fleet/testdata/*.golden")

// typeModel trains a tiny clusterer on the fleet's own workload cycle,
// enough for the cohort rack to classify its tenants' traffic.
func typeModel() *cluster.Model {
	ds := cluster.BuildDataset(defaultWorkloadCycle(), 4, cluster.WindowSize/10, DefaultDeviceConfig().PageSize, 7)
	return cluster.Train(ds, 3, 8)
}

// TestRackGoldens is the one determinism pin for every kind of rack the
// package runs: each placement baseline on a small homogeneous rack with
// migration on, each tier policy on a 2+6 hybrid rack with churn, and a
// cohort rack with sessions and traffic typing. Every entry is rendered
// (roll-up plus per-device detail) at one and four workers; both must
// equal the checked-in golden. Regenerate (only for an intentional model
// change) with:
//
//	go test ./internal/fleet/ -run TestRackGoldens -update
func TestRackGoldens(t *testing.T) {
	type rack struct {
		name string
		cfg  Config
	}
	var racks []rack
	for _, p := range Placements() {
		cfg := testConfig()
		cfg.Placement = p
		racks = append(racks, rack{"placement-" + p.String(), cfg})
	}
	for _, tp := range TierPolicies() {
		racks = append(racks, rack{"tier-" + tp.String(), tierTestConfig(tp)})
	}
	cohort := cohortConfig()
	cohort.TypeModel = typeModel()
	racks = append(racks, rack{"cohort", cohort})

	for _, r := range racks {
		t.Run(r.name, func(t *testing.T) {
			run := func(workers int) string {
				cfg := r.cfg
				cfg.Workers = workers
				return render(New(cfg).Run())
			}
			got := run(1)
			if par := run(4); par != got {
				t.Fatalf("output differs between 1 and 4 workers:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", got, par)
			}
			golden := filepath.Join("testdata", r.name+".golden")
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
