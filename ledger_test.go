package fleetio

import (
	"encoding/json"
	"os"
	"testing"
)

// ledgerPoint is one measurement in BENCH_fleet.json: a report, unmodified
// (a `bench -report` line or a scripts/tier1.sh record), and which side of
// which PR it was taken on.
type ledgerPoint struct {
	PR     int    `json:"pr"`
	Role   string `json:"role"`
	Report struct {
		Workload string `json:"workload"`
		Stamp    struct {
			CPU        string `json:"cpu"`
			NProc      int    `json:"nproc"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Go         string `json:"go"`
			Commit     string `json:"commit"`
		} `json:"stamp"`
		// Started is when a tier-1 run began; a `bench -report` line, which
		// holds all its repetitions, has none.
		Started string `json:"started"`
	} `json:"report"`
}

// TestLedger checks the shape of the ledger, never its numbers (host noise
// is not a test failure): the retired go-test-bench runs kept under
// "legacy", and every point stamped with the machine and build it ran on,
// taken on a known side of a PR, of a workload BENCHMARK.json declares or
// of tier-1. No two points share commit, workload, role, machine and start,
// so a point pasted twice is caught.
func TestLedger(t *testing.T) {
	var ledger struct {
		Legacy struct {
			Runs []json.RawMessage `json:"runs"`
		} `json:"legacy"`
		Points []ledgerPoint `json:"points"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	for file, v := range map[string]any{"BENCH_fleet.json": &ledger, "BENCHMARK.json": &spec} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	if len(ledger.Legacy.Runs) != 6 {
		t.Errorf("legacy holds %d runs, want the 6 archived go-test-bench runs", len(ledger.Legacy.Runs))
	}
	known := map[string]bool{"tier1": true}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	type identity struct {
		commit, workload, role, cpu, goVersion, started string
		nproc, gomaxprocs                               int
	}
	seen := map[identity]int{}
	for i, p := range ledger.Points {
		r, s := p.Report, p.Report.Stamp
		if p.PR <= 0 || (p.Role != "parent" && p.Role != "change") {
			t.Errorf("point %d: pr %d role %q; want a PR number and parent or change", i, p.PR, p.Role)
		}
		if !known[r.Workload] {
			t.Errorf("point %d: workload %q is neither in BENCHMARK.json nor tier1", i, r.Workload)
		}
		if s.CPU == "" || s.NProc <= 0 || s.GOMAXPROCS <= 0 || s.Go == "" || s.Commit == "" {
			t.Errorf("point %d: incomplete stamp %+v", i, s)
		}
		if r.Workload == "tier1" && r.Started == "" {
			t.Errorf("point %d: a tier-1 record without its start time", i)
		}
		id := identity{s.Commit, r.Workload, p.Role, s.CPU, s.Go, r.Started, s.NProc, s.GOMAXPROCS}
		if j, dup := seen[id]; dup {
			t.Errorf("points %d and %d share commit, workload, role, machine and start: %+v", j, i, id)
		}
		seen[id] = i
	}
}
