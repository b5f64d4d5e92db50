package harness

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// TestSharedFlags pins how the flags fleetsim and fleetbench share land in
// Options, and which values are errors: when they resolve (a value that
// does not convert or parse) or when the resolved Options are validated,
// as each binary does.
func TestSharedFlags(t *testing.T) {
	const sample = "../trace/testdata/sample_msr.csv"
	// A binary trace is read as written: this one goes back in time.
	unordered := filepath.Join(t.TempDir(), "unordered.bin")
	f, err := os.Create(unordered)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, []trace.Record{{At: 10, Pages: 1}, {At: 5, Pages: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty: no error
		check   func(t *testing.T, opt Options)
	}{
		{name: "defaults", check: func(t *testing.T, opt Options) {
			def := DefaultOptions()
			if opt.Seed != def.Seed || opt.Duration != def.Duration || opt.Workers != 0 || opt.FleetDevices != 0 ||
				opt.Faults != nil || opt.WorkloadShape != workload.ShapeSteady || opt.ReplayRecords != nil || opt.Obs != nil {
				t.Errorf("no flags must leave DefaultOptions: %+v", opt)
			}
		}},
		{name: "scalars", args: []string{"-seed", "7", "-seconds", "2.5", "-parallel", "3", "-fleet", "12"},
			check: func(t *testing.T, opt Options) {
				if opt.Seed != 7 || opt.Duration != 2500*sim.Millisecond || opt.Workers != 3 || opt.FleetDevices != 12 {
					t.Errorf("seed=%d duration=%d workers=%d fleet=%d", opt.Seed, opt.Duration, opt.Workers, opt.FleetDevices)
				}
			}},
		{name: "faults", args: []string{"-faults", "light"}, check: func(t *testing.T, opt Options) {
			if opt.Faults == nil || !opt.Faults.Enabled() {
				t.Errorf("-faults light did not enable injection: %+v", opt.Faults)
			}
		}},
		{name: "faults off", args: []string{"-faults", "off"}, check: func(t *testing.T, opt Options) {
			if opt.Faults != nil {
				t.Errorf("-faults off set %+v", opt.Faults)
			}
		}},
		{name: "zero seconds", args: []string{"-seconds", "0"}, wantErr: "-seconds"},
		{name: "negative seconds", args: []string{"-seconds", "-1"}, wantErr: "-seconds"},
		{name: "seconds under 1 ns", args: []string{"-seconds", "1e-10"}, wantErr: "-seconds"},
		{name: "NaN seconds", args: []string{"-seconds", "NaN"}, wantErr: "-seconds"},
		{name: "infinite seconds", args: []string{"-seconds", "Inf"}, wantErr: "-seconds"},
		{name: "seconds past sim.Time", args: []string{"-seconds", "1e10"}, wantErr: "-seconds"},
		{name: "rack seconds past sim.Time", args: []string{"-fleet", "4", "-seconds", "1e300"}, wantErr: "-seconds"},
		{name: "run past sim.Time with the warm-up", args: []string{"-seconds", "9.223372035e9"}, wantErr: "-seconds"},
		{name: "longest seconds", args: []string{"-seconds", "9e9"}, check: func(t *testing.T, opt Options) {
			if opt.Duration != 9e9*sim.Second {
				t.Errorf("duration = %d, want %d", opt.Duration, 9e9*sim.Second)
			}
		}},
		{name: "negative parallel", args: []string{"-parallel", "-1"}, wantErr: "-parallel"},
		{name: "negative fleet", args: []string{"-fleet", "-2"}, wantErr: "-fleet"},
		{name: "one-device rack", args: []string{"-fleet", "1"}, wantErr: "-fleet"},
		{name: "bad faults", args: []string{"-faults", "pfail=lots"}, wantErr: "-faults"},
		{name: "workload", args: []string{"-workload", "bursty"}, check: func(t *testing.T, opt Options) {
			if opt.WorkloadShape != workload.ShapeBursty {
				t.Errorf("shape = %v", opt.WorkloadShape)
			}
		}},
		{name: "bad workload", args: []string{"-workload", "spiky"}, wantErr: "-workload"},
		{name: "trace implies replay", args: []string{"-trace", sample}, check: func(t *testing.T, opt Options) {
			if len(opt.ReplayRecords) == 0 || opt.WorkloadShape != workload.ShapeReplay {
				t.Errorf("records=%d shape=%v", len(opt.ReplayRecords), opt.WorkloadShape)
			}
		}},
		{name: "trace with replay", args: []string{"-workload", "replay", "-trace", sample}, check: func(t *testing.T, opt Options) {
			if len(opt.ReplayRecords) == 0 || opt.WorkloadShape != workload.ShapeReplay {
				t.Errorf("records=%d shape=%v", len(opt.ReplayRecords), opt.WorkloadShape)
			}
		}},
		{name: "trace with bursty", args: []string{"-workload", "bursty", "-trace", sample}, wantErr: "-trace replays its records as they are, so it does not combine with -workload bursty"},
		{name: "trace with diurnal", args: []string{"-trace", sample, "-workload", "diurnal"}, wantErr: "-trace replays its records as they are, so it does not combine with -workload diurnal"},
		{name: "missing trace", args: []string{"-trace", "no-such-file"}, wantErr: "-trace"},
		{name: "unordered binary trace", args: []string{"-trace", unordered}, wantErr: "replay record 1 out of order"},
		{name: "rack", args: []string{"-fleet", "4", "-seconds", "0.5", "-parallel", "1", "-seed", "3"},
			check: func(t *testing.T, opt Options) {
				if opt.FleetDevices != 4 || opt.Duration != 500*sim.Millisecond || opt.Workers != 1 || opt.Seed != 3 {
					t.Errorf("fleet=%d duration=%d workers=%d seed=%d", opt.FleetDevices, opt.Duration, opt.Workers, opt.Seed)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			resolve := SharedFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			opt, srv, err := resolve()
			if srv != nil {
				t.Fatal("an -http server without -http")
			}
			if err == nil {
				err = opt.Validate()
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, opt)
		})
	}

	t.Run("http", func(t *testing.T) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		resolve := SharedFlags(fs)
		if err := fs.Parse([]string{"-http", "127.0.0.1:0"}); err != nil {
			t.Fatal(err)
		}
		opt, srv, err := resolve()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv == nil || opt.Obs == nil {
			t.Fatalf("-http must return a server and an observer: srv=%v obs=%v", srv, opt.Obs)
		}
	})
}

// TestValidateGuardsEntryPoints: Options no run can honour make every entry
// point that runs to Duration panic with Validate's error, on the joint and
// the split path and for a rack, before anything runs; PretrainRun returns
// PretrainConfig.Validate's. PrefillFrac, which no flag sets, is named by
// its field.
func TestValidateGuardsEntryPoints(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		opt := DefaultOptions()
		opt.PrefillFrac = frac
		if err := opt.Validate(); err == nil || !strings.HasPrefix(err.Error(), "PrefillFrac ") {
			t.Errorf("PrefillFrac %v: err = %v, want one naming PrefillFrac", frac, err)
		}
	}

	for name, edit := range map[string]func(*Options){
		"Channels":      func(o *Options) { o.Channels = -4 },
		"BlocksPerChip": func(o *Options) { o.BlocksPerChip = -1 },
	} {
		opt := DefaultOptions()
		edit(&opt)
		if err := opt.Validate(); err == nil || !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("negative %s: err = %v, want one naming %s", name, err, name)
		}
	}

	// The CLI's ParseSpec rejects these; a Faults set in code is held to
	// the same check. NaN would otherwise run silently fault-free.
	for _, p := range []float64{2, math.NaN()} {
		opt := DefaultOptions()
		opt.Faults = &fault.Config{ProgramFailProb: p}
		if err := opt.Validate(); err == nil || !strings.HasPrefix(err.Error(), "-faults (Faults): fault: ProgramFailProb = ") {
			t.Errorf("ProgramFailProb %v: err = %v, want one naming -faults and ProgramFailProb", p, err)
		}
	}

	opt := DefaultOptions()
	opt.Duration = 0
	want := opt.Validate()
	if want == nil || !strings.HasPrefix(want.Error(), "-seconds ") {
		t.Fatalf("Duration 0: err = %v, want one naming -seconds", want)
	}
	mix := Pair("YCSB", "TeraSort")
	slos := []sim.Time{sim.Millisecond, sim.Millisecond}
	faulty := opt
	faulty.Faults = &fault.Config{ProgramFailProb: 0.01}
	for name, run := range map[string]func(){
		"RunOne split":  func() { RunOne(mix, PolHardware, slos, opt) },
		"RunOne joint":  func() { RunOne(mix, PolHardware, slos, faulty) },
		"Measure":       func() { Measure(mix, PolSoftware, slos, opt) },
		"Calibrate":     func() { Calibrate(mix, opt) },
		"FleetScenario": func() { FleetScenario(fleet.PlaceLeastLoaded, opt) },
		"TierScenario":  func() { TierScenario(fleet.TierStatic, opt) },
	} {
		func() {
			defer func() {
				if got := recover(); got != "harness: "+want.Error() {
					t.Errorf("%s: panic %v, want Validate's error %q", name, got, want)
				}
			}()
			run()
		}()
	}

	pc := DefaultPretrainConfig()
	pc.EpisodeDuration = 0
	if _, err := PretrainRun(pc, core.ModeFull); err == nil || err.Error() != pc.Validate().Error() {
		t.Errorf("PretrainRun with no episode length: err = %v, want Validate's", err)
	}
}

// TestReplayRecordRules: a supplied trace is held to the replay rules in
// one place, which both Options.Validate (under the -trace prefix) and a
// generator built on the trace (which panics) reach: an empty trace, a
// record of no pages, a negative LPN and a record earlier than the one
// before it are rejected, and a sorted trace is accepted.
func TestReplayRecordRules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recs    []trace.Record
		wantErr string
	}{
		{"empty", nil, "empty replay trace"},
		{"zero pages", []trace.Record{{At: 0, Pages: 1}, {At: 1, Pages: 0}}, "replay record 1: lpn=0 pages=0"},
		{"negative lpn", []trace.Record{{At: 0, LPN: -3, Pages: 1}}, "replay record 0: lpn=-3 pages=1"},
		{"out of order", []trace.Record{{At: 5, Pages: 1}, {At: 4, Pages: 1}}, "replay record 1 out of order"},
		{"sorted", []trace.Record{{At: 0, Pages: 1}, {At: 0, LPN: 7, Pages: 2}, {At: 9, Pages: 1}}, ""},
	} {
		if tc.recs != nil { // to Options, no records means no trace
			opt := DefaultOptions()
			opt.ReplayRecords = tc.recs
			err := opt.Validate()
			if tc.wantErr == "" && err != nil ||
				tc.wantErr != "" && (err == nil || err.Error() != "-trace (ReplayRecords): workload trace: "+tc.wantErr) {
				t.Errorf("%s: Validate: %v, want %q under the -trace prefix", tc.name, err, tc.wantErr)
			}
		}

		eng := sim.NewEngine()
		v := vssd.NewPlatform(eng, vssd.DefaultPlatformConfig()).AddVSSD(vssd.Config{Name: "w", Channels: []int{0}})
		prof := workload.Profile{Name: "trace", Replay: &workload.Replay{Records: tc.recs}}
		func() {
			defer func() {
				got := recover()
				if err, _ := got.(error); (tc.wantErr == "") != (got == nil) || err != nil && !strings.HasSuffix(err.Error(), tc.wantErr) {
					t.Errorf("%s: NewGenerator panicked with %v, want %q", tc.name, got, tc.wantErr)
				}
			}()
			workload.NewGenerator(eng, v, prof, sim.NewRNG(1))
		}()
	}
}
