package harness

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/device"
	"repro/internal/sim"
)

// grid is an evaluation: every mix under every policy, at every level and
// seed. A figure is a projection of a finished grid into text.
type grid struct {
	mixes  []MixSpec
	kinds  []PolicyKind
	levels []level // nil: one level, "", that edits nothing
	seeds  []int64 // nil: {opt.Seed}
}

// level is one rung of a scenario ladder: a name and the Options edit that
// puts a run on it, applied after calibration.
type level struct {
	Name  string
	Apply func(*Options)
}

// rungs is g's levels: one, "", that edits nothing, when it has none.
func (g grid) rungs() []level {
	if g.levels == nil {
		return []level{{Apply: func(*Options) {}}}
	}
	return g.levels
}

// cell is one finished run of a grid: its Result, and what the scenario
// columns read off the finished run.
type cell struct {
	Result
	faults device.FaultStats // the settled recovery ledger; zero without an injector
	types  []string          // workload-type labels; empty unless the policy re-types
	// opt is what the cell ran under. Holding it keeps alive what the
	// cell's key names by address, so no other object can take the address.
	opt Options
}

// addr is where a cell sits in a finished grid.
type addr struct {
	mix   string
	kind  PolicyKind
	level string
	seed  int64
}

// cells is a finished run of grids.
type cells map[addr]cell

func (cs cells) at(mix MixSpec, kind PolicyKind, level string, seed int64) cell {
	c, ok := cs[addr{mix.Label, kind, level, seed}]
	if !ok {
		panic(fmt.Sprintf("harness: no cell %s/%v/%q/seed %d in the grid", mix.Label, kind, level, seed))
	}
	return c
}

// key is every field of o as a map key: pointers by identity, and the replay
// trace by its backing array and length.
func (o Options) key() string {
	recs := o.ReplayRecords
	o.ReplayRecords = nil
	return fmt.Sprintf("%#v %p/%d", o, unsafe.SliceData(recs), len(recs))
}

// onceMap computes each key's value once, however many goroutines ask.
type onceMap[K comparable, V any] struct{ m sync.Map } // K → func() V

func (o *onceMap[K, V]) get(k K, f func() V) V {
	v, _ := o.m.LoadOrStore(k, sync.OnceValue(f))
	return v.(func() V)()
}

// memo holds finished calibrations and cells for as long as it lives: a
// calibration by its mix and options, a cell by its calibration's key, its
// policy and its own options. It stores Results, never a Run. views holds
// what a scenario measures outside a grid (a rack's roll-up, Figures 16 and
// 17), by name and options, so its rendering and its claims read one run.
type memo struct {
	slos  onceMap[string, []sim.Time]
	cells onceMap[string, cell]
	views onceMap[string, any]
}

// memoized is f's value, computed once per m for name at opt. Each read is
// a deep copy made by clone, as a cell's is, so a caller that edits what it
// was handed cannot edit what the next one reads.
func memoized[V any](m *memo, name string, opt Options, f func() V, clone func(V) V) V {
	return clone(m.views.get(name+" "+opt.key(), func() any { return f() }).(V))
}

// cloneResults is a deep copy of rs.
func cloneResults(rs []Result) []Result {
	rs = slices.Clone(rs)
	for i := range rs {
		rs[i].Tenants = slices.Clone(rs[i].Tenants)
	}
	return rs
}

// scenarioMemo is the process memo the scenario figures share cells
// through. RunOne, Measure, Calibrate and Compare never read it.
var scenarioMemo memo

// run computes grids as one flat job list on opt.Workers goroutines, each
// cell through m, and returns a deep copy of every cell. Policies vary
// slower than mixes, so the first jobs calibrate different mixes; each mix
// calibrates once, on the seed's options.
func (m *memo) run(opt Options, grids ...grid) cells {
	type job struct {
		addr
		mix       MixSpec
		base, opt Options // the seed's options, then the level's edit of them
	}
	var jobs []job
	for _, g := range grids {
		seeds := g.seeds
		if seeds == nil {
			seeds = []int64{opt.Seed}
		}
		for _, seed := range seeds {
			base := opt
			base.Seed = seed
			for _, l := range g.rungs() {
				o := base
				l.Apply(&o)
				for _, k := range g.kinds {
					for _, mix := range g.mixes {
						jobs = append(jobs, job{addr{mix.Label, k, l.Name, seed}, mix, base, o})
					}
				}
			}
		}
	}
	out := make(cells, len(jobs))
	var mu sync.Mutex
	forEach(len(jobs), opt.Workers, func(i int) {
		j := jobs[i]
		cal := fmt.Sprintf("%q %q %s", j.mix.Label, j.mix.Workloads, j.base.calibration().key())
		c := m.cells.get(fmt.Sprintf("%s %v %s", cal, j.kind, j.opt.key()), func() cell {
			return runCell(j.mix, j.kind, m.slos.get(cal, func() []sim.Time { return Calibrate(j.mix, j.base) }), j.opt)
		})
		c.Tenants, c.types = slices.Clone(c.Tenants), slices.Clone(c.types)
		mu.Lock()
		out[j.addr] = c
		mu.Unlock()
	})
	return out
}

// runCell is RunOne, keeping what the scenario columns read off a joint
// run: the fault ledger, settled, when faults are injected, and the
// workload-type labels of a policy that re-types.
func runCell(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options) cell {
	if splittable(kind, opt) {
		return cell{Result: RunOne(mix, kind, slos, opt), opt: opt}
	}
	r := Measure(mix, kind, slos, opt)
	c := cell{Result: r.Result, types: r.typeLabels(), opt: opt}
	if opt.faultsEnabled() {
		c.faults = r.FaultStats()
	}
	return c
}
