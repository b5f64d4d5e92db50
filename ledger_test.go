package fleetio

import (
	"cmp"
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
	PR   int    `json:"pr"`
	Role string `json:"role"`
	// Pair is the index of the alternated pair scripts/ab.sh took the point
	// in, from 1, and Order which side of the pair ran first; a point taken
	// otherwise has neither and is pair 0.
	Pair   int    `json:"pair"`
	Order  string `json:"order"`
	Report struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
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
			Kind  string  `json:"kind"`
		} `json:"metrics"`
	} `json:"report"`
}

// TestLedger checks the shape of the ledger, never its numbers (host noise
// is not a test failure): the retired go-test-bench runs kept under
// "legacy", and every point stamped with the machine and build it ran on,
// taken on a known side of a PR, of a workload BENCHMARK.json declares or
// of tier-1. No two points share commit, workload, role, machine, start and
// pair, so a point pasted twice is caught. A PR's bench points come in
// pairs: a workload a PR measured on one side it measured on the other,
// since a point with no partner cannot carry a claim. Where a PR measured a
// workload at one seed in three or more alternated pairs (scripts/ab.sh),
// it logs the spread rule's verdict on each host metric (see spreadRule);
// a verdict is a host number, so it never fails the test. The perf-PR
// table of docs/PERFORMANCE.md prints those points: see checkPerfTable.
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
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
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
		nproc, gomaxprocs, pair                         int
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
		if (p.Pair > 0) != (p.Order == "parent-first" || p.Order == "change-first") || p.Pair < 0 {
			t.Errorf("point %d: pair %d order %q; want pair 0 and no order, or a pair from 1 run parent-first or change-first", i, p.Pair, p.Order)
		}
		id := identity{s.Commit, r.Workload, p.Role, s.CPU, s.Go, r.Started, s.NProc, s.GOMAXPROCS, p.Pair}
		if j, dup := seen[id]; dup {
			t.Errorf("points %d and %d share commit, workload, role, machine, start and pair: %+v", j, i, id)
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
	verdicts := map[ledgerClaim]spreadVerdict{}
	var sides []ledgerSide
	for k := range roles {
		sides = append(sides, k)
	}
	slices.SortFunc(sides, func(a, b ledgerSide) int {
		return cmp.Or(cmp.Compare(a.pr, b.pr), cmp.Compare(a.workload, b.workload))
	})
	for _, k := range sides {
		for _, m := range spec.EndToEnd {
			bySeed := pairedValues(roles[k], m.Name)
			var seeds []int64
			for seed, pairs := range bySeed {
				if len(pairs) >= 3 {
					seeds = append(seeds, seed)
				}
			}
			slices.Sort(seeds)
			for _, seed := range seeds {
				v := spreadRule(bySeed[seed], m.Better == "higher")
				verdicts[ledgerClaim{k, m.Name, seed}] = v
				t.Logf("PR %d %s %s at seed %d: %s", k.pr, k.workload, m.Name, seed, v)
			}
		}
	}
	checkPerfTable(t, roles, verdicts)
}

// ledgerClaim is one metric of one PR's bench points on one workload at
// one seed.
type ledgerClaim struct {
	ledgerSide
	metric string
	seed   int64
}

// abPair is one alternated pair's values of a metric.
type abPair struct {
	parent, change float64
	parentFirst    bool
}

// pairedValues returns the pairs of a PR's points on one workload that hold
// a host metric on both sides, by seed and in pair order; points of pair 0
// are in none.
func pairedValues(sides map[string][]ledgerPoint, metric string) map[int64][]abPair {
	byPair := map[int]*abPair{}
	full := map[int]int{}
	seed := map[int]int64{}
	for _, role := range []string{"parent", "change"} {
		for _, p := range sides[role] {
			m, ok := p.Report.Metrics[metric]
			if p.Pair == 0 || !ok || m.Kind != "host" {
				continue
			}
			ab := byPair[p.Pair]
			if ab == nil {
				ab = &abPair{parentFirst: p.Order == "parent-first"}
				byPair[p.Pair] = ab
				seed[p.Pair] = p.Report.Seed
			}
			if role == "parent" {
				ab.parent = m.Value
			} else {
				ab.change = m.Value
			}
			if seed[p.Pair] == p.Report.Seed {
				full[p.Pair]++
			}
		}
	}
	var ks []int
	for k := range byPair {
		if full[k] == 2 {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	out := map[int64][]abPair{}
	for _, k := range ks {
		out[seed[k]] = append(out[seed[k]], *byPair[k])
	}
	return out
}

// spreadVerdict is the spread rule applied to one metric's pairs.
type spreadVerdict struct {
	pairs, ahead         int
	parentFirst, aheadPF int // pairs run parent first, and the change ahead in them
	parentMed, changeMed float64
	parentIQR            float64
	holds                bool
}

func (v spreadVerdict) word() string {
	if v.holds {
		return "holds"
	}
	return "fails"
}

func (v spreadVerdict) String() string {
	return fmt.Sprintf("spread rule %s: change ahead in %d of %d pairs (%d of %d parent-first, %d of %d change-first), median %.6g → %.6g (%+.2f%%), parent IQR %.3g",
		v.word(), v.ahead, v.pairs, v.aheadPF, v.parentFirst, v.ahead-v.aheadPF, v.pairs-v.parentFirst,
		v.parentMed, v.changeMed, 100*(v.changeMed-v.parentMed)/v.parentMed, v.parentIQR)
}

// spreadRule decides a host claim over alternated pairs: it holds when the
// change is ahead (better, by the metric's direction) in at least nine of
// ten pairs, rounded up, and its median is better than the parent's median
// by more than the distance between the parent's quartiles. Quartiles are
// the exclusive method bench -compare uses.
func spreadRule(pairs []abPair, higherBetter bool) spreadVerdict {
	v := spreadVerdict{pairs: len(pairs)}
	var parent, change []float64
	for _, p := range pairs {
		parent, change = append(parent, p.parent), append(change, p.change)
		ahead := p.change < p.parent
		if higherBetter {
			ahead = p.change > p.parent
		}
		if p.parentFirst {
			v.parentFirst++
		}
		if ahead {
			v.ahead++
			if p.parentFirst {
				v.aheadPF++
			}
		}
	}
	q1, q2, q3 := quartiles(parent)
	_, v.changeMed, _ = quartiles(change)
	v.parentMed, v.parentIQR = q2, q3-q1
	gap := v.parentMed - v.changeMed
	if higherBetter {
		gap = -gap
	}
	v.holds = 10*v.ahead >= 9*v.pairs && gap > v.parentIQR
	return v
}

// quartiles returns the first, second and third quartile by the exclusive
// method (Python's statistics.quantiles(values, n=4)), as bench -compare
// computes them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ledgerSide is one PR's bench points on one workload.
type ledgerSide struct {
	pr       int
	workload string
}

// ledgerCell is the ledger-points cell of a perf-PR table row that has
// points: the workload, the claimed metric, and the parent and change
// points' values as printed; a claim measured in alternated pairs prints
// the medians over its pairs at one seed and the spread rule's verdict.
var ledgerCell = regexp.MustCompile("^`(\\w+)` `(\\w+)` ([0-9.]+) → ([0-9.]+)(?:, spread rule (holds|fails) over (\\d+) pairs at seed (\\d+))?$")

// checkPerfTable reads the perf-PR table of docs/PERFORMANCE.md, one row
// per change that claimed a performance gain, and holds it to the ledger
// it quotes. A row of a PR with bench points in the ledger names a
// workload on which that PR has both a parent and a change point, and
// prints the claimed metric of those points as they are, at the printed
// precision (or, for a claim measured in alternated pairs, their medians
// over the pairs at the printed seed, and the spread rule's verdict as
// TestLedger computes it);
// a row of a PR without points says "pre-ledger". Every row
// points at its PR's CHANGES.md entry, and every CHANGES.md entry tagged
// [perf_opt] has a row, so the next perf change adds one.
func checkPerfTable(t *testing.T, roles map[ledgerSide]map[string][]ledgerPoint, verdicts map[ledgerClaim]spreadVerdict) {
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
		seed, _ := strconv.ParseInt(m[7], 10, 64)
		if m[5] != "" {
			v, ok := verdicts[ledgerClaim{ledgerSide{pr, m[1]}, m[2], seed}]
			if got := fmt.Sprintf("%s over %d", v.word(), v.pairs); !ok || got != m[5]+" over "+m[6] {
				t.Errorf("perf-PR table: PR %d prints the spread rule on %s %s at seed %d as %s over %s pairs; the ledger's pairs give %s pairs", pr, m[1], m[2], seed, m[5], m[6], got)
			}
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
			var values []float64
			for _, p := range ps {
				metric, ok := p.Report.Metrics[m[2]]
				if !ok {
					t.Errorf("perf-PR table: PR %d's %s point on %s has no metric %s", pr, role, m[1], m[2])
					continue
				}
				got = append(got, strconv.FormatFloat(metric.Value, 'f', decimals, 64))
				if p.Pair > 0 && p.Report.Seed == seed {
					values = append(values, metric.Value)
				}
			}
			if m[5] != "" && len(values) > 0 {
				_, med, _ := quartiles(values)
				got = []string{strconv.FormatFloat(med, 'f', decimals, 64)}
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

// The spread rule's arithmetic on pairs made up for it: nine of ten ahead
// with the medians apart by more than the parent's quartile distance holds;
// eight of ten, or medians inside that distance, fails; and a metric where
// higher is better counts the other way.
func TestSpreadRule(t *testing.T) {
	mk := func(parent, change []float64) []abPair {
		var out []abPair
		for i := range parent {
			out = append(out, abPair{parent[i], change[i], i%2 == 0})
		}
		return out
	}
	parent := []float64{10, 11, 12, 10.5, 11.5, 10, 11, 12, 10.5, 11.5}
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		ahead        int
		holds        bool
	}{
		{"nine of ten ahead, clear", []float64{9, 9.5, 9, 9.2, 9.4, 9.1, 9.3, 9, 9.2, 12}, false, 9, true},
		{"eight of ten ahead", []float64{9, 9.5, 9, 9.2, 9.4, 9.1, 9.3, 9, 11, 12}, false, 8, false},
		{"inside the parent's spread", []float64{9.9, 10.9, 11.9, 10.4, 11.4, 9.9, 10.9, 11.9, 10.4, 11.4}, false, 10, false},
		{"higher is better", []float64{13, 14, 15, 13.5, 14.5, 13, 14, 15, 13.5, 14.5}, true, 10, true},
	} {
		v := spreadRule(mk(parent, c.change), c.higherBetter)
		if v.ahead != c.ahead || v.holds != c.holds || v.pairs != 10 || v.parentFirst != 5 {
			t.Errorf("%s: %s; want %d ahead, holds %v", c.name, v, c.ahead, c.holds)
		}
	}
	// The parent's quartiles by the exclusive method: sorted, 10, 10, 10.5,
	// 10.5, 11, 11, 11.5, 11.5, 12, 12 give Q1 10.375 and Q3 11.625.
	if v := spreadRule(mk(parent, parent), false); v.parentIQR != 1.25 || v.parentMed != 11 {
		t.Errorf("parent median %v, IQR %v; want 11 and 1.25", v.parentMed, v.parentIQR)
	}
}
