package harness

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSharedFlags pins how the flags fleetsim and fleetbench share land in
// Options, and which values are errors.
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
		name        string
		args        []string
		sweepsShape bool   // the caller is `-fig workloads`
		wantErr     string // substring; empty: no error
		check       func(t *testing.T, opt Options)
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
		{name: "NaN seconds", args: []string{"-seconds", "NaN"}, wantErr: "-seconds"},
		{name: "negative parallel", args: []string{"-parallel", "-1"}, wantErr: "-parallel"},
		{name: "negative fleet", args: []string{"-fleet", "-2"}, wantErr: "-fleet"},
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
		{name: "trace under -fig workloads", args: []string{"-trace", sample, "-workload", "diurnal"}, sweepsShape: true,
			check: func(t *testing.T, opt Options) {
				if len(opt.ReplayRecords) == 0 || opt.WorkloadShape != workload.ShapeDiurnal {
					t.Errorf("records=%d shape=%v", len(opt.ReplayRecords), opt.WorkloadShape)
				}
			}},
		{name: "missing trace", args: []string{"-trace", "no-such-file"}, wantErr: "-trace"},
		{name: "unordered binary trace", args: []string{"-trace", unordered}, wantErr: "replay record 1 out of order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			resolve := SharedFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			opt, srv, err := resolve(!c.sweepsShape)
			if srv != nil {
				t.Fatal("an -http server without -http")
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
		opt, srv, err := resolve(true)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv == nil || opt.Obs == nil {
			t.Fatalf("-http must return a server and an observer: srv=%v obs=%v", srv, opt.Obs)
		}
	})
}
