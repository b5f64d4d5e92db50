// Command bench is the repository's benchmark: four named workloads over
// the exported API of repro/internal/*, each run in its own process.
//
//	bench -workload W [-seed N] [-seconds S]   timed run: end-to-end metrics
//	bench -workload W -trace 1                 traced pass: per-layer metrics
//	bench -selftest                            prove the metrics respond
//	bench -compare a.jsonl b.jsonl             apply the bounds to two sets
//
// The last line of standard output is the result object the driver reads;
// the line before it is the full report (run stamp, parameters,
// per-repetition walls, every metric tagged host or sim). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart is as close to process start as Go code gets: setup_s is
// measured from here.
var processStart = time.Now()

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run: pair_mixed, pair_read, rack64 or replay_overload")
		seed       = flag.Int64("seed", 1, "seed every input is derived from")
		seconds    = flag.Float64("seconds", 0, "seconds of timed repetitions (default: run_seconds of the spec)")
		trace      = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the timed run")
		specPath   = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		outDir     = flag.String("out", "", "directory for the span JSONL of a traced pass (default: none)")
		repPath    = flag.String("report", "", "file the full report is appended to as one JSON line")
		doSelftest = flag.Bool("selftest", false, "check that the metrics respond to what they name")
		doCompare  = flag.Bool("compare", false, "compare two report files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *doSelftest:
		if !selftest(os.Stdout, spec, 1) {
			os.Exit(1)
		}
		return
	}

	w := workloadByName(*workload)
	if w == nil || !spec.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var r *report
	var tr *tracer
	if *trace != 0 {
		r, tr = runTraced(spec, w, *seed, *seconds, 1, repLimit)
	} else {
		r = runTimed(w, *seed, *seconds, 1, repLimit)
	}
	r.Stamp = newStamp(filepath.Dir(*specPath))
	r.finish(spec)
	if tr != nil && *outDir != "" {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := tr.writeJSONL(path); err != nil {
			fatal(err)
		}
	}
	if *repPath != "" {
		if err := r.appendJSONL(*repPath); err != nil {
			fatal(err)
		}
	}
	r.printTable(os.Stderr)
	full, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", full, r.resultLine())
	if !r.Correct {
		// A watchdog leaves its repetition running; exiting ends it.
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printTable is the human view: every metric by name with its unit, the
// clock it was read from, and the bound it is held to.
func (r *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d traced=%v reps=%d  %s, %d CPUs, GOMAXPROCS=%d, %s, commit %s\n",
		r.Workload, r.Seed, r.Traced, r.Reps, r.Stamp.CPU, r.Stamp.NProc, r.Stamp.GOMAXPROCS, r.Stamp.Go, r.Stamp.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s %-4s %s is better%s\n", name, m.Value, m.Unit, m.Kind, m.Better, bound)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}
