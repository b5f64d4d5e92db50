package harness

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// grid is an evaluation: every mix under every policy, at every level and
// seed. A figure is a projection of a finished grid into text.
type grid struct {
	mixes  []MixSpec
	kinds  []PolicyKind
	levels []level // nil: one level, "", that edits nothing
	seeds  []int64 // nil: {opt.Seed}
}

// level is one rung of a scenario ladder: a name and how a run is put on
// it. apply, when set, edits the options after calibration; run, when set,
// runs the cell in Measure's place, and its name joins the cell's key.
type level struct {
	name  string
	apply func(*Options)
	run   func(MixSpec, PolicyKind, []sim.Time, Options) *Run
}

// rungs is g's levels: one, "", that edits nothing, when it has none.
func (g grid) rungs() []level {
	if g.levels == nil {
		return []level{{}}
	}
	return g.levels
}

// cell is one finished run of a grid: its Result, and what the scenario
// columns read off the finished run.
type cell struct {
	Result
	faults device.FaultStats // the settled recovery ledger; zero without an injector
	types  []string          // workload-type labels; empty unless the policy re-types
	// rows is what the finished run must satisfy: every device's rows
	// (each solo device's, on a split cell), its bandwidth bound, and the
	// settled recovery ledger's rows when faults are injected.
	rows []obs.Invariant
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

// optKey is every field of an Options as a comparable map key: the fault
// config by value, the other pointers by identity, and the replay trace by
// its first record and length. The key holds those pointers, so what a
// memoised key names stays alive and no later object can take its address.
type optKey struct {
	text       string // the fields below cleared, printed
	pretrained *nn.ActorCritic
	obs        *obs.Observer
	faulted    bool
	faults     fault.Config
	trace      *trace.Record
	records    int
}

func (o Options) key() optKey {
	k := optKey{pretrained: o.Pretrained, obs: o.Obs, faulted: o.Faults != nil, records: len(o.ReplayRecords)}
	if k.faulted {
		k.faults = *o.Faults
	}
	if k.records > 0 {
		k.trace = &o.ReplayRecords[0]
	}
	o.Pretrained, o.Obs, o.Faults, o.ReplayRecords = nil, nil, nil, nil
	k.text = fmt.Sprintf("%#v", o)
	return k
}

// namedKey keys a calibration by its mix and a rack's roll-up by its name,
// each at its options.
type namedKey struct {
	name string
	opt  optKey
}

// cellKey keys a cell by its calibration's key, its policy, its own options
// and the name of a level that runs it ("" for a level that only edits).
type cellKey struct {
	cal   namedKey
	kind  PolicyKind
	opt   optKey
	level string
}

// onceMap computes each key's value once, however many goroutines ask.
type onceMap[K comparable, V any] struct{ m sync.Map } // K → func() V

func (o *onceMap[K, V]) get(k K, f func() V) V {
	v, _ := o.m.LoadOrStore(k, sync.OnceValue(f))
	return v.(func() V)()
}

// memo holds finished calibrations and cells for as long as it lives: a
// calibration by its mix and options, a cell by its calibration's key, its
// policy, its own options and the name of a level that runs it. It stores
// Results, never a Run. views holds a rack's roll-up by name and options,
// so the rack's rendering and its claims read one run.
type memo struct {
	slos  onceMap[namedKey, []sim.Time]
	cells onceMap[cellKey, cell]
	views onceMap[namedKey, any]
}

// memoized is f's value, computed once per m for name at opt. Each read is
// a deep copy made by clone, as a cell's is, so a caller that edits what it
// was handed cannot edit what the next one reads.
func memoized[V any](m *memo, name string, opt Options, f func() V, clone func(V) V) V {
	return clone(m.views.get(namedKey{name, opt.key()}, func() any { return f() }).(V))
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
		run       func(MixSpec, PolicyKind, []sim.Time, Options) *Run
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
				if l.apply != nil {
					l.apply(&o)
				}
				for _, k := range g.kinds {
					for _, mix := range g.mixes {
						jobs = append(jobs, job{addr{mix.Label, k, l.name, seed}, mix, base, o, l.run})
					}
				}
			}
		}
	}
	out := make(cells, len(jobs))
	var mu sync.Mutex
	forEach(len(jobs), opt.Workers, func(i int) {
		j := jobs[i]
		cal := namedKey{fmt.Sprintf("%q %q", j.mix.Label, j.mix.Workloads), j.base.calibration().key()}
		key := cellKey{cal: cal, kind: j.kind, opt: j.opt.key()}
		if j.run != nil {
			key.level = j.level
		}
		c := m.cells.get(key, func() cell {
			return runCell(j.mix, j.kind, m.slos.get(cal, func() []sim.Time { return Calibrate(j.mix, j.base) }), j.opt, j.run)
		})
		c.Tenants, c.types, c.rows = slices.Clone(c.Tenants), slices.Clone(c.types), slices.Clone(c.rows)
		mu.Lock()
		out[j.addr] = c
		mu.Unlock()
	})
	return out
}

// runCell is run's finished run (RunOne's, when run is nil), keeping what
// the scenario columns and the claims read off it: the invariant rows, the
// fault ledger, settled, when faults are injected, and the workload-type
// labels of a policy that re-types. A split run's rows are its solo
// devices'.
func runCell(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options, run func(MixSpec, PolicyKind, []sim.Time, Options) *Run) cell {
	if run == nil {
		if splittable(kind, opt) {
			solos := measureSplit(mix, slos, opt)
			c := cell{Result: mergeSolos(mix, solos, opt)}
			for _, s := range solos {
				c.rows = append(c.rows, s.invariants()...)
			}
			return c
		}
		run = Measure
	}
	r := run(mix, kind, slos, opt)
	c := cell{Result: r.Result, types: r.typeLabels(), rows: r.invariants()}
	if opt.faultsEnabled() {
		c.faults = r.FaultStats()
		c.rows = append(c.rows, c.faults.Invariants()...)
	}
	return c
}
