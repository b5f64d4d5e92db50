package device

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// tinyFlash is one channel and one chip of eight 16-page blocks.
func tinyFlash() flash.Config {
	fc := flash.DefaultConfig()
	fc.Channels, fc.ChipsPerChannel, fc.BlocksPerChip, fc.PagesPerBlock = 1, 1, 8, 16
	return fc
}

// TestPrefillStopsAtFirstFailedAllocation pins the one prefill's contract on
// a device too small for the fill: it returns an error at the first
// allocation that finds no space, runs no engine event (a rack shard's
// engine is live when it prefills), and leaves the pages it mapped before
// the failure mapped.
func TestPrefillStopsAtFirstFailedAllocation(t *testing.T) {
	d := New(tinyFlash(), nil, nil)
	fc := d.Platform().FlashConfig()
	logical := fc.TotalBlocks() * fc.PagesPerBlock // no overprovisioning: cannot fit
	eng := d.Platform().Engine()
	executed := eng.Executed()
	v, err := d.AddVSSD(Spec{
		Config:      vssd.Config{Name: "full", Channels: []int{0}, LogicalPages: logical},
		PrefillFrac: 1, Overwrite: 0.3, RNG: sim.NewRNG(1),
	})
	if err == nil {
		t.Fatal("a fill larger than the device returned no error")
	}
	if got := eng.Executed(); got != executed {
		t.Fatalf("prefill executed %d engine events, want 0", got-executed)
	}
	tn := v.Tenant()
	if stalls := d.Platform().FTL().Stats().AllocStalls; stalls != 1 {
		t.Fatalf("%d failed allocations, want 1: the fill stops at the first", stalls)
	}
	mapped := int(tn.MappedPages())
	if mapped == 0 || mapped >= logical {
		t.Fatalf("%d of %d pages mapped, want a proper prefix", mapped, logical)
	}
	for lpn := 0; lpn < logical; lpn++ {
		if _, ok := tn.Lookup(lpn); ok != (lpn < mapped) {
			t.Fatalf("LPN %d mapped=%v, want exactly LPNs [0, %d) mapped", lpn, ok, mapped)
		}
	}
	t.Logf("%v (%d of %d pages mapped)", err, mapped, logical)
}

// TestDriveReplacesAndStartsOnALiveDevice: Drive on a started device starts
// the new generator at once and stops the one it replaces, which is how a
// rack places a tenant mid-run and a transfer run swaps a workload.
func TestDriveReplacesAndStartsOnALiveDevice(t *testing.T) {
	d := New(tinyFlash(), nil, nil)
	if _, err := d.AddVSSD(Spec{Config: vssd.Config{Name: "v", Channels: []int{0}}, PrefillFrac: 0.3, Overwrite: 0.2, RNG: sim.NewRNG(1)}); err != nil {
		t.Fatal(err)
	}
	d.Attach(core.StaticPolicy{PolicyName: "static"}, nil, 10*sim.Millisecond)
	first := d.Drive(0, workload.ByName("YCSB"), sim.NewRNG(2), nil)
	if first.Issued() != 0 {
		t.Fatal("a generator bound before Start issued")
	}
	d.Start()
	d.Advance(50 * sim.Millisecond)
	if first.Issued() == 0 {
		t.Fatal("Start did not start the bound generator")
	}
	second := d.Drive(0, workload.ByName("TeraSort"), sim.NewRNG(3), nil)
	before := first.Issued()
	d.Advance(100 * sim.Millisecond)
	if first.Issued() != before {
		t.Errorf("the replaced generator issued %d more requests", first.Issued()-before)
	}
	if second.Issued() == 0 {
		t.Error("a generator bound on a started device did not start")
	}
	if gens := d.Generators(); len(gens) != 1 || gens[0] != second {
		t.Errorf("Generators() = %v, want the replacement only", gens)
	}
}
