package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

const (
	// A run sets up at least minSetupPasses times, and again while set-up
	// has taken under setupFloor in all (a rack sets up in a tenth of a
	// second, and a median of three of those is noise), up to
	// maxSetupPasses; setup_s is the median pass.
	minSetupPasses = 3
	maxSetupPasses = 9
	setupFloor     = 1500 * time.Millisecond
	// warmupScale is the length of the discarded warm-up repetition that
	// ends every set-up pass.
	warmupScale = 0.1
	maxReps     = 200
	// repLimit is the watchdog: a repetition still running after this is
	// abandoned and the process ends with a diagnostic.
	repLimit = 120 * time.Second
)

var errWatchdog = errors.New("repetition exceeded the watchdog limit")

// guarded runs fn on a goroutine the caller can abandon: a panic comes
// back as an error, and a run that cannot finish (the overload storm,
// a lost barrier wake-up) comes back as errWatchdog after limit instead
// of hanging the pipeline. An abandoned goroutine keeps running; the
// caller must end the process.
func guarded(limit time.Duration, fn func() (repOut, error)) (repOut, error) {
	type result struct {
		out repOut
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- result{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		out, err := fn()
		ch <- result{out, err}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		return repOut{}, errWatchdog
	}
}

// timedRep measures one repetition: wall of the timed call and bytes it
// allocated. The collection before it keeps one repetition's garbage out
// of the next one's wall.
func timedRep(limit time.Duration, fn func() (repOut, error)) (out repOut, wallS, allocMB float64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err = guarded(limit, fn)
	wallS = time.Since(t0).Seconds()
	if err == nil {
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return out, wallS, allocMB, err
}

// subRun accumulates the repetitions of one sub-seed.
type subRun struct {
	seed    int64
	out     repOut // first repetition's outcome; later ones must equal it
	walls   []float64
	allocMB []float64
}

// runTimed is the untraced run: set-up (several passes, each ending in a
// discarded warm-up repetition), then timed repetitions cycling through
// the sub-seeds on a fresh stack each, until seconds of timed wall have
// passed and every sub-seed has run. scale shortens every repetition
// (tests and the selftest use it; the benchmark runs at 1).
func runTimed(w *workloadDef, seed int64, seconds, scale float64, limit time.Duration) *report {
	r := &report{Workload: w.name, Seed: seed, Seconds: seconds, Params: w.params(), Metrics: metricSet{}}
	subs := make([]subRun, w.subSeeds)
	for k := range subs {
		subs[k].seed = subSeed(seed, k)
		r.SubSeeds = append(r.SubSeeds, subs[k].seed)
	}

	var p *prepared
	var setups []float64
	start := processStart // the first pass also pays process start and lazies
	setupStart := time.Now()
	for pass := 0; pass < minSetupPasses || (pass < maxSetupPasses && time.Since(setupStart) < setupFloor); pass++ {
		p = w.prepare(nil, subs[0].seed, scale)
		if _, err := guarded(limit, func() (repOut, error) { return w.rep(p, subs[0].seed, scale*warmupScale) }); err != nil {
			r.fail("warm-up repetition: %v", err)
			return abandon(r, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}

	// Sub-seed 0 runs at least twice so that exactness is checked even when
	// one cycle through the sub-seeds fills the run.
	var timed float64
	for rep := 0; rep < maxReps && (rep <= len(subs) || timed < seconds); rep++ {
		s := &subs[rep%len(subs)]
		out, wallS, allocMB, err := timedRep(limit, func() (repOut, error) { return w.rep(p, s.seed, scale) })
		timed += wallS
		r.RepWallS = append(r.RepWallS, wallS)
		if err != nil {
			// Charge the lost repetition with what its sub-seed (or, on a
			// first pass, its neighbour) completes when it works.
			lost := max(s.out.completed, subs[0].out.completed, 1)
			r.Attempted += lost
			r.Failed += lost
			r.fail("repetition %d (sub-seed %d): %v", rep, s.seed, err)
			return abandon(r, err)
		}
		r.Attempted += out.completed
		if len(s.walls) == 0 {
			s.out = out
		} else if out.fingerprint != s.out.fingerprint {
			r.fail("sub-seed %d: simulated outputs differ between repetitions:\n%s\nvs\n%s", s.seed, s.out.fingerprint, out.fingerprint)
		}
		s.walls = append(s.walls, wallS)
		s.allocMB = append(s.allocMB, allocMB)
	}
	r.Reps = len(r.RepWallS)

	// A host metric is built from each sub-seed's median over its
	// repetitions; a simulated one aggregates, over the sub-seeds, a value
	// that repeated exactly: utilization by its mean, the P99 by its median
	// (one sub-seed in ten has a tail twice the others', and a mean would
	// report whether this run drew one).
	var wall, vsec, alloc, util float64
	var p99s []float64
	var completed, p99Samples int64
	for _, s := range subs {
		wall += median(s.walls)
		alloc += median(s.allocMB)
		vsec += s.out.vsec
		completed += s.out.completed
		util += s.out.sim.utilPct
		p99s = append(p99s, s.out.sim.lsP99Ms)
		p99Samples += s.out.sim.lsSamples
		r.SubRuns = append(r.SubRuns, subReport{
			Seed: s.seed, WallS: s.walls, Completed: s.out.completed,
			UtilPct: s.out.sim.utilPct, LsP99Ms: s.out.sim.lsP99Ms,
		})
	}
	n := float64(len(subs))
	r.Metrics.host("sim_iops_per_wall_s", float64(completed)/wall)
	r.Metrics.host("wall_s_per_vsec", wall/vsec)
	r.Metrics.host("setup_s", median(setups))
	r.Metrics.host("alloc_mb", alloc/n)
	r.Metrics.host("peak_rss_mb", peakRSSMB())
	r.Metrics.sim("sim_util_pct", util/n)
	r.Metrics.sim("sim_ls_p99_ms", median(p99s))
	r.Samples = map[string]int64{"sim_ls_p99_ms": p99Samples / int64(len(subs)), "setup_s": int64(len(setups))}
	return r
}

// abandon ends a run whose repetition failed. After a watchdog the
// repetition's goroutine is still running, so every goroutine's stack
// goes to standard error: that is the diagnostic.
func abandon(r *report, err error) *report {
	if errors.Is(err, errWatchdog) {
		fmt.Fprintln(os.Stderr, "bench: watchdog fired; goroutine dump follows")
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // best-effort diagnostic
	}
	return r
}
