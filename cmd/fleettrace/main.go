// Command fleettrace converts, inspects, and synthesizes the block I/O
// traces the simulator replays (see docs/WORKLOADS.md for both formats).
//
// Usage:
//
//	fleettrace convert -in trace.csv -out trace.bin [-format auto|msr|ali|generic] [-page 16384]
//	fleettrace info -in trace.bin
//	fleettrace synth -workload YCSB -out trace.bin [-n 20000] [-seed 1]
//
// convert ingests a CSV block trace (MSR-Cambridge-style, Alibaba-style,
// or the generic at_ns,op,lpn,pages form — auto-sniffed by column count)
// and writes the compact binary format fleetsim/fleetbench replay.
// info prints a summary of any trace file (either format). synth
// generates a trace from one of the built-in workload profiles, for
// self-contained replay experiments.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleettrace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		convert(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "synth":
		synth(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fleettrace convert -in trace.csv -out trace.bin [-format auto|msr|ali|generic] [-page %d]
  fleettrace info -in trace.bin
  fleettrace synth -workload YCSB -out trace.bin [-n 20000] [-seed 1]
`, flash.DefaultConfig().PageSize)
	os.Exit(2)
}

func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace (CSV or binary)")
	out := fs.String("out", "", "output binary trace")
	format := fs.String("format", "auto", "CSV dialect: auto, msr, ali, or generic")
	page := fs.Int("page", flash.DefaultConfig().PageSize, "page size for byte-addressed CSV dialects")
	_ = fs.Parse(args)
	if *in == "" || *out == "" {
		log.Fatal("convert needs -in and -out")
	}

	var recs []trace.Record
	var err error
	if *format == "auto" {
		recs, err = trace.LoadFile(*in, *page)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		f, ferr := trace.FormatByName(*format)
		if ferr != nil {
			log.Fatal(ferr)
		}
		r, oerr := os.Open(*in)
		if oerr != nil {
			log.Fatal(oerr)
		}
		var clamped int
		recs, clamped, err = trace.ParseCSV(r, f, *page)
		r.Close()
		if err != nil {
			log.Fatal(err)
		}
		if clamped > 0 {
			log.Printf("clamped %d oversized rows to %d pages", clamped, trace.MaxRecordPages)
		}
	}

	w, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Write(w, recs); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d records to %s", len(recs), *out)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "trace file (CSV or binary)")
	page := fs.Int("page", flash.DefaultConfig().PageSize, "page size for byte-addressed CSV dialects")
	_ = fs.Parse(args)
	if *in == "" {
		log.Fatal("info needs -in")
	}
	recs, err := trace.LoadFile(*in, *page)
	if err != nil {
		log.Fatal(err)
	}
	if len(recs) == 0 {
		log.Fatal("empty trace")
	}
	var writes, pages, maxLPN int64
	for _, r := range recs {
		if r.Write {
			writes++
		}
		pages += int64(r.Pages)
		if end := r.LPN + int64(r.Pages); end > maxLPN {
			maxLPN = end
		}
	}
	span := recs[len(recs)-1].At - recs[0].At
	fmt.Printf("records=%d span=%.3fs writes=%.1f%% avgPages=%.1f maxLPN=%d\n",
		len(recs), float64(span)/1e9,
		100*float64(writes)/float64(len(recs)),
		float64(pages)/float64(len(recs)), maxLPN)
	if span > 0 {
		fmt.Printf("rate=%.0f IOPS bandwidth=%.1f MB/s (at page size %d)\n",
			float64(len(recs))/(float64(span)/1e9),
			float64(pages)*float64(*page)/(float64(span)/1e9)/1e6, *page)
	}
}

func synth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	name := fs.String("workload", "YCSB", "profile to synthesize (see internal/workload)")
	out := fs.String("out", "", "output binary trace")
	n := fs.Int("n", 20000, "records to generate")
	seed := fs.Int64("seed", 1, "RNG seed")
	_ = fs.Parse(args)
	if *out == "" {
		log.Fatal("synth needs -out")
	}
	if err := checkSynth(*name, *n); err != nil {
		log.Fatal(err)
	}
	prof := workload.ByName(*name)
	recs := prof.SynthesizeTrace(*n, 1<<20, sim.NewRNG(*seed))
	w, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Write(w, recs); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d %s records to %s", len(recs), *name, *out)
}

// checkSynth rejects a synth request that would panic or write a trace
// nothing can replay: a record count below one, or a workload with no
// profile.
func checkSynth(name string, n int) error {
	if n < 1 {
		return fmt.Errorf("-n %d: a trace needs at least one record", n)
	}
	if !slices.Contains(workload.Names(), name) {
		return fmt.Errorf("-workload %q: unknown (want one of %s)", name, strings.Join(workload.Names(), ", "))
	}
	return nil
}
