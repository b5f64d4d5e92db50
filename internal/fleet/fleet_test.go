package fleet

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// metricNames scrapes reg the way -http serves it and returns the names of
// its metric families, in registration order.
func metricNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	return names
}

// testConfig is a small rack that still exercises queueing, rejection,
// and (with Migration on) at least one cold migration.
func testConfig() Config {
	return Config{
		Devices:   4,
		Seed:      1,
		Duration:  2 * sim.Second,
		Placement: PlaceLeastLoaded,
		Migration: true,
	}
}

// render pins every Stats field, plus per-device detail, for byte
// comparison across worker counts.
func render(s Stats) string {
	var b strings.Builder
	s.Render(&b)
	for _, d := range s.PerDevice {
		fmt.Fprintf(&b, "dev %d tenants=%d util=%.4f bytes=%d completed=%d\n",
			d.Device, d.Tenants, d.MeanUtil, d.BytesMoved, d.Completed)
	}
	return b.String()
}

// TestRackFaultLedgerBalances: an 8-device rack under heavy NAND faults
// runs to completion with its control-plane ledger balanced. Settled the
// way harness.Run.FaultStats settles a single run (generators stopped,
// 50 ms more), and then until nothing on the shard is queued, in flight or
// collecting (a shard's GC outlives its traffic, and a GC program that
// just failed is not yet remapped), every shard's fault-recovery rows hold
// too: each injected program failure was remapped and recovered exactly
// once. So do its device rows.
func TestRackFaultLedgerBalances(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 8
	heavy := fault.Heavy()
	cfg.Faults = &heavy
	f := New(cfg)
	if st := f.Run(); !st.Balanced() {
		t.Fatalf("ledger imbalance: %+v", st)
	}
	var injected int64
	for i, sh := range f.Shards() {
		sh.dev.Stop()
		at := f.cfg.Duration + 50*sim.Millisecond
		sh.dev.Advance(at)
		for busy(sh) {
			if at += sim.Millisecond; at > f.cfg.Duration+sim.Second {
				t.Fatalf("shard %d still busy a second after its generators stopped", i)
			}
			sh.dev.Advance(at)
		}
		st := sh.dev.FaultStats()
		injected += st.Device.ProgramFails
		if failing := obs.Failing(append(st.Invariants(), sh.dev.Invariants()...)); failing != "" {
			t.Errorf("shard %d: %s", i, failing)
		}
	}
	if injected == 0 {
		t.Fatal("heavy faults injected no program failure")
	}
}

// busy reports whether any vSSD on sh has queued or in-flight I/O or is
// collecting.
func busy(sh *Shard) bool {
	for _, v := range sh.Platform().VSSDs() {
		if v.QueueLen() > 0 || v.Inflight() > 0 || v.Tenant().InGC() {
			return true
		}
	}
	return false
}

func TestFleetLedgerBalances(t *testing.T) {
	for _, kind := range Placements() {
		cfg := testConfig()
		cfg.Placement = kind
		st := New(cfg).Run()
		if !st.Balanced() {
			t.Errorf("%v: ledger imbalance: %+v", kind, st)
		}
		if st.Arrived != cfg.withDefaults().Tenants {
			t.Errorf("%v: arrived %d of %d tenants", kind, st.Arrived, cfg.withDefaults().Tenants)
		}
		if st.Placed == 0 {
			t.Errorf("%v: nothing placed", kind)
		}
		if st.Completed == 0 {
			t.Errorf("%v: no I/O completed", kind)
		}
	}
}

func TestFleetAdmissionSaturates(t *testing.T) {
	cfg := testConfig()
	cfg.Migration = false
	// Far more tenants than the rack holds: the queue must fill and the
	// overflow must be rejected, never silently dropped.
	cfg.Tenants = cfg.Devices*slotsPerDevice*4 + 3
	st := New(cfg).Run()
	if st.Rejected == 0 {
		t.Fatalf("oversubscribed rack rejected nothing: %+v", st)
	}
	if st.Queued == 0 {
		t.Fatalf("oversubscribed rack queued nothing: %+v", st)
	}
	if !st.Balanced() {
		t.Fatalf("ledger imbalance: %+v", st)
	}
	slots := cfg.Devices * slotsPerDevice
	if st.Running+st.Migrating > slots {
		t.Fatalf("running %d tenants on %d slots", st.Running+st.Migrating, slots)
	}
}

func TestFleetMigrationCompletes(t *testing.T) {
	// Round-robin lands heavy batch jobs next to each other, so one device
	// runs hot while another stays cool with a free slot.
	cfg := testConfig()
	cfg.Placement = PlaceRoundRobin
	fl := New(cfg)
	st := fl.Run()
	if st.MigrationsCompleted == 0 {
		t.Fatalf("no migration completed: %+v", st)
	}
	if st.Downtime <= 0 {
		t.Fatalf("completed migration charged no downtime: %+v", st)
	}
	if !st.Balanced() {
		t.Fatalf("ledger imbalance after migration: %+v", st)
	}
	var migrated *Tenant
	for _, tn := range fl.Tenants() {
		if tn.Migrations > 0 {
			migrated = tn
			break
		}
	}
	if migrated == nil {
		t.Fatal("no tenant records a completed migration")
	}
	if migrated.Downtime <= 0 {
		t.Fatal("migrated tenant has zero downtime")
	}
	if migrated.State == StateRunning && migrated.vssd == nil {
		t.Fatal("running migrated tenant has no vSSD")
	}
}

func TestFleetMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	st := New(cfg).Run()
	if st.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	names := metricNames(t, reg)
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range []string{
		"fleetio_fleet_devices", "fleetio_fleet_tenants_running",
		"fleetio_fleet_placements_total", "fleetio_fleet_util_max",
		"fleetio_fleet_epochs_total",
	} {
		if !have[n] {
			t.Errorf("metric %s not registered (have %v)", n, names)
		}
	}
}

// TestPrefillFracAboveOneRejected: a prefill past the tenant's logical space
// must fail in New, naming the field, not at the first placement mid-run.
func TestPrefillFracAboveOneRejected(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "PrefillFrac") {
			t.Fatalf("New with PrefillFrac 1.5 panicked with %q, want a message naming PrefillFrac", msg)
		}
	}()
	cfg := testConfig()
	cfg.PrefillFrac = 1.5
	New(cfg)
}

func TestPlacementParseAndStrings(t *testing.T) {
	for _, kind := range Placements() {
		got, err := ParsePlacement(kind.String())
		if err != nil || got != kind {
			t.Fatalf("ParsePlacement(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Fatal("ParsePlacement accepted bogus")
	}
}
