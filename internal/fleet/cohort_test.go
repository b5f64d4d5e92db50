package fleet

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// cohortConfig is a small rack in cohort mode: short sessions so several
// tenants depart mid-run and their slots recycle to queued arrivals.
func cohortConfig() Config {
	cfg := testConfig()
	cfg.Duration = 3 * sim.Second
	cfg.Lifetime = 800 * sim.Millisecond
	return cfg
}

func TestCohortDeparturesFreeSlots(t *testing.T) {
	st := New(cohortConfig()).Run()
	if st.Departed == 0 {
		t.Fatalf("no tenant departed in cohort mode: %+v", st)
	}
	// The five-term ledger by its rows, not just Balanced(): every arrival
	// is accounted for exactly once even as slots churn, and every
	// placement is alive or departed.
	for _, name := range []string{"fleet.arrived", "fleet.placed"} {
		i := slices.IndexFunc(st.Invariants, func(r obs.Invariant) bool { return r.Name == name })
		if i < 0 {
			t.Fatalf("no %s row in %v", name, st.Invariants)
		}
	}
	if failing := obs.Failing(st.Invariants); failing != "" {
		t.Fatalf("rows fail with departures: %s", failing)
	}
}

func TestCohortSlotsRecycle(t *testing.T) {
	// With everyone departing quickly, placements must exceed the rack's
	// slot capacity: freed slots get reused by later arrivals.
	cfg := cohortConfig()
	cfg.Migration = false
	cfg.Lifetime = 300 * sim.Millisecond
	cfg.Tenants = 24
	st := New(cfg).Run()
	capacity := cfg.Devices * slotsPerDevice
	if st.Placed <= capacity {
		t.Fatalf("placed %d <= capacity %d: slots never recycled (departed=%d)",
			st.Placed, capacity, st.Departed)
	}
	if !st.Balanced() {
		t.Fatalf("ledger imbalance: %+v", st)
	}
}

func TestCohortDepartedStateInvariants(t *testing.T) {
	f := New(cohortConfig())
	f.Run()
	for _, tn := range f.Tenants() {
		if tn.State != StateDeparted {
			continue
		}
		if tn.Device != -1 || tn.vssd != nil || tn.gen != nil {
			t.Fatalf("departed tenant %d still bound: dev=%d", tn.ID, tn.Device)
		}
	}
	// Slot accounting closes: each shard's slotsUsed matches its residents
	// plus reserved migration destinations (a migrating tenant stays in
	// the source's resident list until cutover, while its destination
	// slot is already reserved).
	for dev, sh := range f.Shards() {
		reserved := 0
		for _, m := range f.migs {
			if m.dst == dev {
				reserved++
			}
		}
		if sh.slotsUsed != len(sh.resident)+reserved {
			t.Fatalf("dev %d: slotsUsed=%d residents=%d reserved=%d",
				dev, sh.slotsUsed, len(sh.resident), reserved)
		}
	}
}

func TestFleetTypeCounts(t *testing.T) {
	// Train a tiny model on the fleet's own workload cycle and check the
	// fleet's traffic classification produces labels for traced tenants.
	cfg := testConfig()
	cfg.TypeModel = typeModel()
	st := New(cfg).Run()
	if len(st.TypeCounts) == 0 {
		t.Fatalf("no workload types classified: %+v", st)
	}
	total := 0
	for i, tc := range st.TypeCounts {
		if tc.Count <= 0 || tc.Label == "" {
			t.Fatalf("bad type count %+v", tc)
		}
		if i > 0 && st.TypeCounts[i-1].Label >= tc.Label {
			t.Fatalf("type counts not sorted: %+v", st.TypeCounts)
		}
		total += tc.Count
	}
	if total > st.Placed {
		t.Fatalf("classified %d tenants but only %d placed", total, st.Placed)
	}
	// The cycle mixes open-loop services with closed-loop batch jobs, so
	// the model must see at least two distinct traffic types.
	if len(st.TypeCounts) < 2 {
		t.Fatalf("only one traffic type observed: %+v", st.TypeCounts)
	}
}

// A departing tenant is typed as it leaves and keeps only the label: after
// a cohort rack's Run no departed tenant holds a recorder (or a generator
// that could hold one), and the type tally is still the golden's.
func TestDepartedTenantsDropRecorders(t *testing.T) {
	cfg := cohortConfig()
	cfg.TypeModel = typeModel()
	f := New(cfg)
	st := f.Run()
	departed, labelled := 0, 0
	for _, tn := range f.Tenants() {
		if tn.State != StateDeparted {
			continue
		}
		departed++
		if tn.rec != nil || tn.gen != nil {
			t.Fatalf("departed tenant %d still holds its recorder or generator", tn.ID)
		}
		if tn.typeLabel != "" {
			labelled++
		}
	}
	if departed == 0 || labelled == 0 {
		t.Fatalf("%d tenants departed, %d of them typed: the rack exercises nothing", departed, labelled)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cohort.golden"))
	if err != nil {
		t.Fatal(err)
	}
	typesLine := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "types:") {
				return l
			}
		}
		return ""
	}
	if got, want := typesLine(render(st)), typesLine(string(want)); got == "" || got != want {
		t.Fatalf("type tally %q, golden %q", got, want)
	}
}

func TestCohortZeroLifetimeUnchanged(t *testing.T) {
	// Lifetime=0 must be byte-identical to the pre-cohort behavior: no
	// extra RNG draws, no departures.
	st := New(testConfig()).Run()
	if st.Departed != 0 {
		t.Fatalf("departures with Lifetime=0: %+v", st)
	}
}
