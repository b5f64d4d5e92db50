package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestStallStormDigest pins the allocation-stall storm bit for bit: the
// open-loop replay into a tenant prefilled to 90% (the replay_overload
// benchmark workload), at two seeds, fault-free and under light faults,
// plus a FleetIO pair at the same fill so harvested blocks are written
// while the device is full. Each case hashes everything the storm can
// move: the Result, the FTL counters (AllocStalls counts every failed
// poll), the device fault ledger, the gSB counters and each vSSD's
// latency histogram (count, sum, P99). A change to how stalled pages wait
// must leave every line unchanged. Regenerate (only for an intentional
// model change) with:
//
//	go test ./internal/harness/ -run TestStallStormDigest -update
func TestStallStormDigest(t *testing.T) {
	light := fault.Light()
	mix := Pair("YCSB", "TeraSort")
	type stormCase struct {
		name    string
		kind    PolicyKind
		shape   workload.Shape
		seed    int64
		faults  *fault.Config
		prefill float64
		warmup  sim.Time // the measured interval is twice as long
		harvest bool     // gSBs must be harvested
	}
	const storm = 250 * sim.Millisecond
	var cases []stormCase
	for _, seed := range []int64{1, 2} {
		cases = append(cases,
			stormCase{fmt.Sprintf("replay/seed%d/off", seed), PolHardware, workload.ShapeReplay, seed, nil, 0.9, storm, false},
			stormCase{fmt.Sprintf("replay/seed%d/light", seed), PolHardware, workload.ShapeReplay, seed, &light, 0.9, storm, false})
	}
	// At 90% fill FleetIO's Make_Harvestable finds no channel above the
	// free-block floor, so its harvest actions are issued and refused; at
	// the default fill gSBs are lent, written and reclaimed while host
	// pages stall beside them.
	cases = append(cases,
		stormCase{"fleetio/seed1/fill90", PolFleetIO, workload.ShapeSteady, 1, nil, 0.9, storm, false},
		stormCase{"fleetio/seed1/fill55", PolFleetIO, workload.ShapeSteady, 1, nil, 0.55, 2 * sim.Second, true})

	var got strings.Builder
	for _, c := range cases {
		opt := DefaultOptions()
		opt.Seed = c.seed
		opt.Warmup = c.warmup
		opt.Duration = 2 * c.warmup
		opt.PrefillFrac = c.prefill
		opt.WorkloadShape = c.shape
		opt.Faults = c.faults
		r := Measure(mix, c.kind, Calibrate(mix, opt), opt)
		plat := r.Platform()
		fst := plat.FTL().Stats()
		if fst.AllocStalls == 0 {
			t.Errorf("%s: no allocation stalled; the case no longer reaches a full device", c.name)
		}
		gst := plat.GSB().Stats()
		if c.harvest && gst.Harvested == 0 {
			t.Errorf("%s: no gSB was harvested", c.name)
		}
		var b strings.Builder
		b.WriteString(renderResults([]Result{r.Result}))
		fmt.Fprintf(&b, "ftl %+v\nfaults %+v\ngsb %+v\n", fst, plat.Device().FaultStats(), gst)
		for _, v := range plat.VSSDs() {
			h := v.TotalHist()
			fmt.Fprintf(&b, "vssd %d count=%d sum=%d p99=%d\n", v.ID(), h.Count(), h.Sum(), h.P99())
		}
		fmt.Fprintf(&got, "%s %x stalls=%d\n", c.name, sha256.Sum256([]byte(b.String())), fst.AllocStalls)
	}

	golden := filepath.Join("testdata", "stall_storm.sha256")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("stall storm digests diverged:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
