package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// selftest shows that the metrics measure what they name: each check
// changes one thing and predicts which number moves and which does not.
// scale shortens the repetitions (bench_test.go); the benchmark's own
// lengths are scale 1.
func selftest(w io.Writer, spec *benchSpec, scale float64) bool {
	ok := true
	check := func(pass bool, format string, args ...any) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(w, "%s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	var bound float64
	for _, ms := range spec.EndToEnd {
		if ms.Name == "wall_s_per_vsec" {
			bound = ms.Bound
		}
	}

	// versus times two variants of one workload, alternating them so that a
	// slow phase of the machine falls on both, three repetitions each, and
	// returns each one's fastest wall per virtual second (interference only
	// ever adds time, so the minimum is the steadier witness here).
	type variant struct {
		wd    *workloadDef
		scale float64
	}
	versus := func(p *prepared, seed int64, a, b variant) (sa, sb float64, oa, ob repOut, err error) {
		sa, sb = math.Inf(1), math.Inf(1)
		for i := 0; i < 3; i++ {
			for j, v := range []variant{a, b} {
				o, wallS, _, err := timedRep(repLimit, func() (repOut, error) { return v.wd.rep(p, seed, v.scale) })
				if err != nil {
					return 0, 0, oa, ob, err
				}
				if j == 0 {
					sa, oa = min(sa, wallS/o.vsec), o
				} else {
					sb, ob = min(sb, wallS/o.vsec), o
				}
			}
		}
		return sa, sb, oa, ob, nil
	}

	// 1. wall_s_per_vsec is a rate: half the virtual time costs half the
	// wall. (Not on rack64, whose arrival schedule scales with Duration,
	// nor on replay_overload, whose wall is quadratic in it.)
	for _, name := range []string{"pair_mixed", "pair_read"} {
		wd := workloadByName(name)
		seed := subSeed(1, 0)
		p := wd.prepare(nil, seed, scale)
		if _, err := wd.rep(p, seed, scale*warmupScale); err != nil {
			check(false, "%s warm-up: %v", name, err)
			continue
		}
		full, half, _, _, err := versus(p, seed, variant{wd, scale}, variant{wd, scale / 2})
		if err != nil {
			check(false, "%s: %v", name, err)
			continue
		}
		check(math.Abs(half/full-1) <= bound,
			"%s: wall_s_per_vsec %.5f at full length, %.5f at half (%+.1f%%, bound %.0f%%)",
			name, full, half, 100*(half/full-1), 100*bound)
	}

	// 2. rack64 exercises the parallel runtime: one worker is slower than
	// two, and produces the same bytes.
	rack := workloadByName("rack64")
	single := *rack
	single.workers = 1
	seed := subSeed(1, 0)
	if _, err := rack.rep(nil, seed, scale*warmupScale); err != nil {
		check(false, "rack64 warm-up: %v", err)
	} else if two, one, out2, out1, err := versus(nil, seed, variant{rack, scale}, variant{&single, scale}); err != nil {
		check(false, "rack64: %v", err)
	} else {
		if runtime.NumCPU() < 2 {
			check(true, "rack64: one CPU, workers 1 vs 2 not compared (%.4f vs %.4f s/vs)", one, two)
		} else {
			check(one > two, "rack64: %.4f s/vs at one worker, %.4f at two", one, two)
		}
		check(out1.fingerprint == out2.fingerprint, "rack64: workers 1 and 2 render identical stats")
	}

	// 3. The event-heap kernel feels heap depth.
	shallow, deep := kernelSim(256), kernelSim(16*256)
	check(deep > shallow, "sim.kernel_ns_per_event %.1f ns at depth 256, %.1f at 16x", shallow, deep)

	// 4. Simulated metrics are functions of the seed: exact at one seed,
	// different at another.
	pm := workloadByName("pair_mixed")
	p := pm.prepare(nil, subSeed(1, 0), scale*warmupScale)
	a, errA := pm.rep(p, subSeed(1, 0), scale*warmupScale)
	b, errB := pm.rep(p, subSeed(1, 0), scale*warmupScale)
	c, errC := pm.rep(p, subSeed(2, 0), scale*warmupScale)
	if errA != nil || errB != nil || errC != nil {
		check(false, "pair_mixed: %v %v %v", errA, errB, errC)
	} else {
		check(a.fingerprint == b.fingerprint, "sim_* repeat exactly under -seed 1")
		check(a.fingerprint != c.fingerprint, "sim_* change under -seed 2 (util %.3f%% vs %.3f%%)", a.sim.utilPct, c.sim.utilPct)
	}
	return ok
}
