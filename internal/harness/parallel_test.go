package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Compare must produce identical Result structs at any worker count —
// every run owns its engine, platform, and RNG streams, and results land
// in index-addressed slots.
func TestCompareParallelMatchesSequential(t *testing.T) {
	opt := WithPretrained(fastOptions())
	opt.Duration = 3 * sim.Second
	mix := Pair("YCSB", "TeraSort")
	kinds := []PolicyKind{PolHardware, PolSoftware, PolFleetIO}

	opt.Workers = 1
	seq := Compare(mix, kinds, opt)
	opt.Workers = 4
	par := Compare(mix, kinds, opt)

	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Compare diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// A grid (what the figures project) at four workers must match a
// sequential single-mix Compare per mix and per seed exactly: the seed axis
// is the options' seed, set before calibration.
func TestCompareAllMatchesCompare(t *testing.T) {
	opt := fastOptions()
	opt.Duration = 3 * sim.Second
	g := grid{
		mixes: []MixSpec{Pair("YCSB", "TeraSort"), Pair("VDI-Web", "PageRank")},
		kinds: []PolicyKind{PolHardware, PolSoftware},
		seeds: []int64{opt.Seed, opt.Seed + 1},
	}

	opt.Workers = 4
	cs := new(memo).run(opt, g)

	opt.Workers = 1
	for _, seed := range g.seeds {
		opt.Seed = seed
		for _, mix := range g.mixes {
			want := Compare(mix, g.kinds, opt)
			for i, k := range g.kinds {
				if got := cs.at(mix, k, "", seed).Result; !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("grid cell %s/%v/seed %d diverged:\ngrid: %+v\nseq:  %+v", mix.Label, k, seed, got, want[i])
				}
			}
		}
	}
}

// Parallel runs sharing one Observer must be race-clean (run under -race)
// and still produce deterministic results.
func TestCompareParallelWithObserver(t *testing.T) {
	opt := fastOptions()
	opt.Duration = 3 * sim.Second
	opt.Obs = obs.NewObserver()
	opt.Workers = 4
	mix := Pair("YCSB", "TeraSort")
	kinds := []PolicyKind{PolHardware, PolSoftware, PolAdaptive}

	par := Compare(mix, kinds, opt)

	opt.Obs = obs.NewObserver()
	opt.Workers = 1
	seq := Compare(mix, kinds, opt)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("observed parallel Compare diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if opt.Obs.Recorder().Len() == 0 {
		// Static policies record window events; an empty recorder means the
		// observer was never wired through.
		t.Fatal("observer recorded no events")
	}
}

// forEach must hit every index exactly once for awkward worker/job ratios.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 31} {
			hits := make([]int32, n)
			forEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}
