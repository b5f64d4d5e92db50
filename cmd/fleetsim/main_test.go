package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/trace"
)

// TestModeRejectsIgnoredFlags: a flag that names the other mode's
// structure, or a value no run can take, fails before the run, naming the
// flag, instead of being silently dropped or panicking mid-run. The shared
// flags fail when they resolve, fleetsim's own in checkMode. A rack reads
// every device flag.
func TestModeRejectsIgnoredFlags(t *testing.T) {
	// The rack's -trace case replays t.bin from the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "t.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, []trace.Record{{At: 0, Pages: 1}, {At: 5, Write: true, LPN: 8, Pages: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	cases := []struct {
		args    []string
		wantErr string // the flag named; empty: accepted
	}{
		{args: nil},
		{args: []string{"-mix", "YCSB,MLPrep", "-policy", "hardware", "-faults", "light", "-workload", "bursty", "-decisions", "d.jsonl"}},
		{args: []string{"-fleet", "4", "-placement", "hash"}},
		{args: []string{"-fleet", "4", "-tier-policy", "watermark"}},
		{args: []string{"-fleet", "4", "-seconds", "0.5", "-parallel", "2", "-seed", "3"}},
		{args: []string{"-fleet", "4", "-faults", "heavy"}},
		{args: []string{"-fleet", "4", "-workload", "bursty"}},
		{args: []string{"-fleet", "4", "-trace", "t.bin"}},
		{args: []string{"-fleet", "4", "-mix", "YCSB,MLPrep"}, wantErr: "-mix"},
		{args: []string{"-fleet", "4", "-policy", "hardware"}, wantErr: "-policy"},
		{args: []string{"-fleet", "4", "-decisions", "d.jsonl"}, wantErr: "-decisions"},
		{args: []string{"-fleet", "4", "-tier-policy", "learned", "-placement", "hash"}, wantErr: "-placement"},
		// -tier-policy alone makes a rack hybrid; the former -tiers switch
		// is an unknown flag, not a silent no-op.
		{args: []string{"-fleet", "4", "-tiers", "-tier-policy", "watermark"}, wantErr: "-tiers"},
		{args: []string{"-fleet", "0", "-tier-policy", "watermark"}, wantErr: "-tier-policy"},
		{args: []string{"-tier-policy", "static-pin"}, wantErr: "-tier-policy"},
		{args: []string{"-placement", "round-robin"}, wantErr: "-placement"},
		{args: []string{"-fleet", "1", "-tier-policy", "learned"}, wantErr: "-fleet"},
		{args: []string{"-mix", "YCSB,Nope"}, wantErr: "-mix"},
		{args: []string{"-mix", "YCSB,TeraSort,MLPrep"}, wantErr: "-mix"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := declareFlags(fs)
			err := fs.Parse(c.args)
			if err == nil {
				var opt harness.Options
				if opt, _, err = f.shared(); err == nil {
					err = checkMode(fs, f, opt)
				}
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") &&
				err.Error() != "flag provided but not defined: "+c.wantErr {
				t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
			}
		})
	}
}
