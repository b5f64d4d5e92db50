package fleetio

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
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
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"report"`
}

// TestLedger checks the shape of the ledger, never its numbers (host noise
// is not a test failure): the retired go-test-bench runs kept under
// "legacy", and every point stamped with the machine and build it ran on,
// taken on a known side of a PR, of a workload BENCHMARK.json declares or
// of tier-1. No two points share commit, workload, role, machine and start,
// so a point pasted twice is caught. A PR's bench points come in pairs: a
// workload a PR measured on one side it measured on the other, since a
// point with no partner cannot carry a claim. The perf-PR table of
// docs/PERFORMANCE.md prints those points: see checkPerfTable.
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
	roles := map[ledgerSide]map[string][]ledgerPoint{}
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
		if r.Workload != "tier1" {
			k := ledgerSide{p.PR, r.Workload}
			if roles[k] == nil {
				roles[k] = map[string][]ledgerPoint{}
			}
			roles[k][p.Role] = append(roles[k][p.Role], p)
		}
	}
	for k, r := range roles {
		if len(r["parent"]) == 0 || len(r["change"]) == 0 {
			t.Errorf("PR %d has %s points on one side only (%d parent, %d change); a claim needs both", k.pr, k.workload, len(r["parent"]), len(r["change"]))
		}
	}
	checkPerfTable(t, roles)
}

// ledgerSide is one PR's bench points on one workload.
type ledgerSide struct {
	pr       int
	workload string
}

// ledgerCell is the ledger-points cell of a perf-PR table row that has
// points: the workload, the claimed metric, and the parent and change
// points' values as printed.
var ledgerCell = regexp.MustCompile("^`(\\w+)` `(\\w+)` ([0-9.]+) → ([0-9.]+)$")

// checkPerfTable reads the perf-PR table of docs/PERFORMANCE.md, one row
// per change that claimed a performance gain, and holds it to the ledger
// it quotes. A row of a PR with bench points in the ledger names a
// workload on which that PR has both a parent and a change point, and
// prints the claimed metric of those points as they are, at the printed
// precision; a row of a PR without points says "pre-ledger". Every row
// points at its PR's CHANGES.md entry, and every CHANGES.md entry tagged
// [perf_opt] has a row, so the next perf change adds one.
func checkPerfTable(t *testing.T, roles map[ledgerSide]map[string][]ledgerPoint) {
	t.Helper()
	measured := map[int]bool{}
	for k := range roles {
		measured[k.pr] = true
	}
	doc, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n<!-- perf-PR table:")
	table, _, closed := strings.Cut(rest, "\n<!-- end of perf-PR table -->")
	if !ok || !closed || strings.Contains(table, "<!--") {
		t.Fatal("docs/PERFORMANCE.md: want one perf-PR table between its two marker comments")
	}
	rows := map[int]bool{}
	for _, line := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) != 6 {
			t.Errorf("perf-PR table: %q has %d cells, want 6", line, len(cells))
			continue
		}
		pr, err := strconv.Atoi(cells[0])
		if err != nil {
			continue // the header and its separator
		}
		if rows[pr] {
			t.Errorf("perf-PR table: PR %d has two rows", pr)
		}
		rows[pr] = true
		if entry := fmt.Sprintf("PR %d:", pr); cells[5] != "CHANGES.md `"+entry+"`" || !strings.Contains("\n"+string(changes), "\n"+entry) {
			t.Errorf("perf-PR table: PR %d's record %q is not CHANGES.md's %q entry", pr, cells[5], entry)
		}
		m := ledgerCell.FindStringSubmatch(cells[4])
		switch {
		case !measured[pr]:
			if !strings.HasPrefix(cells[4], "pre-ledger") {
				t.Errorf("perf-PR table: PR %d has no ledger points, but its row prints %q", pr, cells[4])
			}
			continue
		case m == nil:
			t.Errorf("perf-PR table: PR %d has ledger points; want its row to print \"`workload` `metric` parent → change\", got %q", pr, cells[4])
			continue
		}
		for i, role := range []string{"parent", "change"} {
			printed := m[3+i]
			decimals := 0
			if _, frac, ok := strings.Cut(printed, "."); ok {
				decimals = len(frac)
			}
			ps := roles[ledgerSide{pr, m[1]}][role]
			if len(ps) == 0 {
				t.Errorf("perf-PR table: PR %d has no %s point on %s", pr, role, m[1])
			}
			var got []string
			for _, p := range ps {
				metric, ok := p.Report.Metrics[m[2]]
				if !ok {
					t.Errorf("perf-PR table: PR %d's %s point on %s has no metric %s", pr, role, m[1], m[2])
					continue
				}
				got = append(got, strconv.FormatFloat(metric.Value, 'f', decimals, 64))
			}
			if len(got) > 0 && !slices.Contains(got, printed) {
				t.Errorf("perf-PR table: PR %d prints %s %s %s as %s; the ledger's point reads %s", pr, m[1], m[2], role, printed, strings.Join(got, " or "))
			}
		}
	}
	for _, line := range strings.Split(string(changes), "\n") {
		var pr int
		if _, err := fmt.Sscanf(line, "PR %d: [perf_opt]", &pr); err == nil && !rows[pr] {
			t.Errorf("CHANGES.md tags PR %d [perf_opt], but the perf-PR table has no row for it", pr)
		}
	}
	if len(rows) == 0 {
		t.Error("perf-PR table: no rows")
	}
}
