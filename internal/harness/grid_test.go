package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestMemoKeysWorkers keeps the worker-count identity gates honest: a grid
// rendered at one worker and then at four computes every cell (and every
// calibration) once per worker count, so the two renderings compare two
// computations, never one run with itself. Rendering either again computes
// nothing.
func TestMemoKeysWorkers(t *testing.T) {
	t.Parallel()
	opt := tinyOptions()
	mix := Pair("YCSB", "TeraSort")
	g := grid{mixes: []MixSpec{mix}, kinds: []PolicyKind{PolHardware, PolSoftware}}
	m := new(memo)
	count := func(o *sync.Map) (n int) {
		o.Range(func(any, any) bool { n++; return true })
		return n
	}
	computed := func() (slos, cells int) { return count(&m.slos.m), count(&m.cells.m) }
	render := func(workers int) string {
		opt.Workers = workers
		cs := m.run(opt, g)
		var b bytes.Buffer
		for _, k := range g.kinds {
			b.WriteString(renderResults([]Result{cs.at(mix, k, "", opt.Seed).Result}))
		}
		return b.String()
	}
	one := render(1)
	if s, c := computed(); s != 1 || c != 2 {
		t.Fatalf("at 1 worker: %d calibrations and %d cells computed, want 1 and 2", s, c)
	}
	four := render(4)
	if s, c := computed(); s != 2 || c != 4 {
		t.Fatalf("after 4 workers: %d calibrations and %d cells computed, want 2 and 4 (one per worker count)", s, c)
	}
	render(1)
	render(4)
	if s, c := computed(); s != 2 || c != 4 {
		t.Fatalf("re-rendering computed again: %d calibrations and %d cells, want 2 and 4", s, c)
	}
	if len(one) == 0 || one != four {
		t.Fatalf("grid differs between 1 and 4 workers:\n%s\nvs\n%s", one, four)
	}
}

// TestMemoReadsDeepCopy: a projection that edits the cell it was handed
// must not edit the memo's, so the next figure reading that cell sees the
// run as it finished.
func TestMemoReadsDeepCopy(t *testing.T) {
	t.Parallel()
	opt := tinyOptions()
	mix := Pair("YCSB", "TeraSort")
	g := grid{mixes: []MixSpec{mix}, kinds: []PolicyKind{PolHardware, PolFleetIO}}
	m := new(memo)
	first := m.run(opt, g)
	want := renderResults([]Result{first.at(mix, PolFleetIO, "", opt.Seed).Result})
	wantTypes := slices.Clone(first.at(mix, PolFleetIO, "", opt.Seed).types)
	if len(wantTypes) == 0 {
		t.Fatal("a FleetIO cell carries no workload-type labels")
	}
	for _, k := range g.kinds {
		c := first.at(mix, k, "", opt.Seed)
		for i := range c.Tenants {
			c.Tenants[i].P99Ms, c.Tenants[i].Workload = -1, "mutated"
		}
		for i := range c.types {
			c.types[i] = "mutated"
		}
	}
	again := m.run(opt, g).at(mix, PolFleetIO, "", opt.Seed)
	if got := renderResults([]Result{again.Result}); got != want {
		t.Fatalf("editing a projected Result edited the memo:\n%s\nwant\n%s", got, want)
	}
	if !reflect.DeepEqual(again.types, wantTypes) {
		t.Fatalf("editing projected type labels edited the memo: %v", again.types)
	}

	// What a scenario measures outside a grid (Figures 16 and 17, a rack's
	// roll-up) is read the same way.
	runs := func() []Result { return []Result{{Tenants: []TenantResult{{P99Ms: 1}}}} }
	memoized(m, "runs", opt, runs, cloneResults)[0].Tenants[0].P99Ms = -1
	if got := memoized(m, "runs", opt, runs, cloneResults); !reflect.DeepEqual(got, runs()) {
		t.Fatalf("editing memoized runs edited the memo: %+v", got)
	}
	rack := func() fleet.Stats {
		return fleet.Stats{TypeCounts: []fleet.TypeCount{{Label: "a", Count: 1}}, Tiers: []fleet.TierStats{{Name: "a"}}}
	}
	st := memoized(m, "rack", opt, rack, cloneStats)
	st.TypeCounts[0].Count, st.Tiers[0].Name = -1, "mutated"
	if got := memoized(m, "rack", opt, rack, cloneStats); !reflect.DeepEqual(got, rack()) {
		t.Fatalf("editing a memoized rack edited the memo: %+v", got)
	}
}

// TestOptionsKeyCoversOptions: a cell's key changes with every Options
// field, so no field can be added that two different runs would share a
// cell across. Pointers key by identity, and the replay trace by its
// backing array and length.
func TestOptionsKeyCoversOptions(t *testing.T) {
	base := Options{}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint8:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("Options.%s: no test value for a %v", typ.Field(i).Name, f.Kind())
		}
		if o.key() == base.key() {
			t.Errorf("Options.%s does not change the key", typ.Field(i).Name)
		}
	}
	recs := make([]trace.Record, 4)
	a, b := base, base
	a.ReplayRecords, b.ReplayRecords = recs, recs
	a.Faults = new(fault.Config)
	b.Faults = a.Faults
	if a.key() != b.key() {
		t.Fatal("one set of options keys two ways")
	}
	for _, other := range [][]trace.Record{recs[:2], slices.Clone(recs)} {
		if b.ReplayRecords = other; a.key() == b.key() {
			t.Fatalf("a replay trace of %d records keys as another of %d", len(other), len(recs))
		}
	}
	b.ReplayRecords, b.Faults = recs, new(fault.Config)
	if a.key() == b.key() {
		t.Fatal("two fault configs key as one")
	}
}

// TestOnceMapComputesOnce: concurrent lookups of one key compute it once.
func TestOnceMapComputesOnce(t *testing.T) {
	var m onceMap[string, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := m.get("seven", func() int { calls.Add(1); return 49 }); v != 49 {
				t.Errorf("get = %d, want 49", v)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want once", n)
	}
}

// TestMemoPinsKeyedObjects: a cell keyed by the address of its fault config
// keeps that config alive, so a later config cannot take the address and be
// served the cell.
func TestMemoPinsKeyedObjects(t *testing.T) {
	t.Parallel()
	m := new(memo)
	freed := make(chan struct{}, 1)
	func() {
		opt := tinyOptions()
		heavy := fault.Heavy()
		opt.Faults = &heavy
		runtime.SetFinalizer(opt.Faults, func(*fault.Config) { freed <- struct{}{} })
		m.run(opt, grid{mixes: []MixSpec{Pair("YCSB", "TeraSort")}, kinds: []PolicyKind{PolHardware}})
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
		t.Fatal("the memo let a fault config its key names by address be freed")
	case <-time.After(100 * time.Millisecond):
	}
	runtime.KeepAlive(m)
}
