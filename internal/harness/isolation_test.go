package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// isolationOptions is a short hardware-isolated run: long enough for GC and
// every shape's rate modulation to be live, short enough to sweep.
func isolationOptions() Options {
	opt := DefaultOptions()
	opt.Warmup = 250 * sim.Millisecond
	opt.Duration = 500 * sim.Millisecond
	return opt
}

// workloadsOf returns the workload names of one class, in workload.Names
// order.
func workloadsOf(c workload.Class) []string {
	var out []string
	for _, name := range workload.Names() {
		if workload.ByName(name).Class == c {
			out = append(out, name)
		}
	}
	return out
}

// TestHardwareIsolationNonInterference is the reference's own guarantee:
// every P99 ratio divides by the hardware-isolated P99, so a
// hardware-isolated tenant's outcome must not depend on who it shares the
// device with. Tenant A is fixed, once per latency workload; tenant B sweeps
// the bandwidth workloads under every shape; A's latency histogram,
// completions and bytes must be bit-identical across B. The tenants share
// one engine (its (time, seq) order), the FTL manager's allocation memo, the
// retry lane, the device bus lane and the run's parent RNG stream, and none
// of them may leak. Fault-free only: the fault injector draws one stream per
// device in op order across tenants.
func TestHardwareIsolationNonInterference(t *testing.T) {
	t.Parallel()
	type outcome struct {
		count, sum, completed, bytes int64
		p99                          sim.Time
	}
	bandwidth := workloadsOf(workload.Bandwidth)
	type job struct {
		a, b  string
		shape workload.Shape
	}
	var jobs []job // B varies fastest: each run of len(bandwidth) shares A and the shape
	for _, a := range workloadsOf(workload.Latency) {
		for _, shape := range workload.Shapes() {
			for _, b := range bandwidth {
				jobs = append(jobs, job{a, b, shape})
			}
		}
	}
	out := make([]outcome, len(jobs))
	opt := isolationOptions()
	forEach(len(jobs), opt.Workers, func(i int) {
		j, o := jobs[i], opt
		o.WorkloadShape = j.shape
		v := Measure(Pair(j.a, j.b), PolHardware, nil, o).Platform().VSSD(0)
		h := v.TotalHist()
		out[i] = outcome{h.Count(), h.Sum(), v.Completed(), v.TotalBytesMoved(), h.P99()}
	})
	for i, got := range out {
		ref := i - i%len(bandwidth)
		if got.completed == 0 {
			t.Fatalf("%s/%s with %s completed nothing", jobs[i].a, jobs[i].shape, jobs[i].b)
		}
		if got != out[ref] {
			t.Errorf("%s/%s: A's outcome depends on B:\nwith %s: %+v\nwith %s: %+v",
				jobs[i].a, jobs[i].shape, jobs[ref].b, out[ref], jobs[i].b, got)
		}
	}
}

// TestHardwareIsolationSplitMatchesJoint gates the split: RunOne and
// Calibrate run a hardware-isolated mix as one share-sized device per
// tenant, and must reproduce the joint run (Measure) bit for bit — the
// Result, and the P99s calibration reads off it. Both benchmark pairs, a
// 4-tenant and an 8-tenant Table-5 mix, under every shape, at the default
// and the overload prefill; worker counts alternate, since 1 runs the solos
// sequentially and 2 concurrently. An observed run and a faulted run stay
// joint: they must equal the split run and Measure respectively.
func TestHardwareIsolationSplitMatchesJoint(t *testing.T) {
	t.Parallel()
	t5 := table5Mixes()
	mixes := []MixSpec{Pair("YCSB", "TeraSort"), Pair("SearchEngine", "PageRank"), t5[3], t5[4]}
	type job struct {
		mix     MixSpec
		shape   workload.Shape
		prefill float64
	}
	var jobs []job
	for _, mix := range mixes {
		for _, shape := range workload.Shapes() {
			for _, prefill := range []float64{0.55, 0.9} {
				jobs = append(jobs, job{mix, shape, prefill})
			}
		}
	}
	base := isolationOptions()
	forEach(len(jobs), base.Workers, func(i int) {
		j, o := jobs[i], base
		o.WorkloadShape, o.PrefillFrac, o.Workers = j.shape, j.prefill, 1+i%2
		name := fmt.Sprintf("%s/%s/fill%v/workers%d", j.mix.Label, j.shape, j.prefill, o.Workers)
		joint := Measure(j.mix, PolHardware, nil, o)
		if split := RunOne(j.mix, PolHardware, nil, o); !reflect.DeepEqual(split, joint.Result) {
			t.Errorf("%s: RunOne split\n%+v\njoint\n%+v", name, split, joint.Result)
			return
		}
		if j.shape != workload.ShapeSteady {
			return
		}
		// Calibrate runs steady: its P99s against the steady joint run's.
		want := make([]sim.Time, len(j.mix.Workloads))
		for k, v := range joint.Platform().VSSDs() {
			if want[k] = v.TotalHist().P99(); want[k] <= 0 {
				want[k] = 2 * sim.Millisecond
			}
		}
		if got := Calibrate(j.mix, o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Calibrate split %v, joint %v", name, got, want)
		}
	})

	// The joint fallbacks, each against the split run or the oracle.
	mix := mixes[0]
	o := base
	o.WorkloadShape, o.PrefillFrac = workload.ShapeReplay, 0.9
	split := RunOne(mix, PolHardware, nil, o)
	o.Obs = obs.NewObserver()
	if observed := RunOne(mix, PolHardware, nil, o); !reflect.DeepEqual(observed, split) {
		t.Errorf("observed (joint) RunOne\n%+v\ndiffers from the split one\n%+v", observed, split)
	}
	o.Obs = nil
	light := fault.Light()
	o.Faults = &light
	if faulted, joint := RunOne(mix, PolHardware, nil, o), Measure(mix, PolHardware, nil, o).Result; !reflect.DeepEqual(faulted, joint) {
		t.Errorf("faulted RunOne\n%+v\ndiffers from Measure\n%+v", faulted, joint)
	}
}
