package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/fleet/testdata/*.golden")

// typeModel trains a tiny clusterer on the fleet's own workload cycle,
// enough for the cohort rack to classify its tenants' traffic.
func typeModel() *cluster.Model {
	ds := cluster.BuildDataset(defaultWorkloadCycle(), 4, cluster.WindowSize/10, defaultDeviceConfig().PageSize, 7)
	return cluster.Train(ds, 3, 8)
}

// TestRackGoldens is the one determinism pin for every kind of rack the
// package runs: each placement baseline on a small homogeneous rack with
// migration on, each tier policy on a 2+6 hybrid rack with churn, a cohort
// rack with sessions and traffic typing, a rack whose last arrival lands
// on the final epoch boundary, and the least-loaded rack under light NAND
// faults and under the bursty shape (each of which must differ from the
// fault-free steady one). Every entry is rendered (roll-up plus
// per-device detail) at one, three and four workers (three gives home
// spans of unequal size, so stealing crosses spans of different lengths);
// each must equal the checked-in golden, and every tenant holding a slot
// must have been built. Regenerate (only for an intentional model change)
// with:
//
//	go test ./internal/fleet/ -run TestRackGoldens -update
func TestRackGoldens(t *testing.T) {
	type rack struct {
		name string
		cfg  Config
		// placedAtEnd: the final barrier must place a tenant, which no
		// epoch after it advances.
		placedAtEnd bool
		// differsFrom names a golden this rack's must not equal.
		differsFrom string
	}
	var racks []rack
	for _, p := range Placements() {
		cfg := testConfig()
		cfg.Placement = p
		racks = append(racks, rack{name: "placement-" + p.String(), cfg: cfg})
	}
	for _, tp := range TierPolicies() {
		racks = append(racks, rack{name: "tier-" + tp.String(), cfg: tierTestConfig(tp)})
	}
	cohort := cohortConfig()
	cohort.TypeModel = typeModel()
	racks = append(racks, rack{name: "cohort", cfg: cohort})
	atEnd := testConfig()
	atEnd.Tenants = 8
	atEnd.arrivalEvery = atEnd.Duration / 8
	racks = append(racks, rack{name: "arrival-at-end", cfg: atEnd, placedAtEnd: true})
	faulty := testConfig()
	light := fault.Light()
	faulty.Faults = &light
	racks = append(racks, rack{name: "faults-light", cfg: faulty, differsFrom: "placement-least-loaded"})
	bursty := testConfig()
	bursty.WorkloadShape = workload.ShapeBursty
	racks = append(racks, rack{name: "bursty", cfg: bursty, differsFrom: "placement-least-loaded"})

	for _, r := range racks {
		t.Run(r.name, func(t *testing.T) {
			run := func(workers int) string {
				cfg := r.cfg
				cfg.Workers = workers
				f := New(cfg)
				st := f.Run()
				atEnd := false
				for _, tn := range f.Tenants() {
					if (tn.State == StateRunning || tn.State == StateLeaving) && (tn.vssd == nil || tn.gen == nil) {
						t.Fatalf("workers=%d: tenant %d holds a slot on device %d but has no vSSD or generator", workers, tn.ID, tn.Device)
					}
					atEnd = atEnd || (tn.State == StateRunning && tn.placedAt == f.cfg.Duration)
				}
				if r.placedAtEnd && !atEnd {
					t.Fatalf("workers=%d: no tenant was placed at the final boundary %v", workers, f.cfg.Duration)
				}
				return render(st)
			}
			got := run(1)
			for _, workers := range []int{3, 4} {
				if par := run(workers); par != got {
					t.Fatalf("output differs between 1 and %d workers:\n--- workers=1 ---\n%s--- workers=%d ---\n%s", workers, got, workers, par)
				}
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
			if r.differsFrom != "" {
				other, err := os.ReadFile(filepath.Join("testdata", r.differsFrom+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if got == string(other) {
					t.Fatalf("output equals %s.golden: the rack ignored its option", r.differsFrom)
				}
			}
		})
	}
}
