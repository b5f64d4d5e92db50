package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunOneObserved drives a full FleetIO run with an attached Observer
// and checks that the whole pipeline lights up: decision events from the
// policy, gSB and GC events from the device stack, and populated
// time-series gauges from the sampler.
func TestRunOneObserved(t *testing.T) {
	opt := fastOptions()
	opt.TrainDuringRun = false // deterministic greedy actions are enough
	opt.Obs = obs.NewObserver()
	mix := Pair("YCSB", "TeraSort")
	slos := Calibrate(mix, opt)
	res := RunOne(mix, PolFleetIO, slos, opt)
	if len(res.Tenants) != 2 {
		t.Fatalf("got %d tenants", len(res.Tenants))
	}

	rec := opt.Obs.Recorder()
	if rec.Len() == 0 {
		t.Fatal("observed run recorded no events")
	}
	// Read the events back the way -decisions writes them.
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	type event struct {
		Seq  uint64        `json:"seq"`
		At   int64         `json:"at_ns"`
		Kind obs.EventKind `json:"kind"`
	}
	var events []event
	for dec := json.NewDecoder(&jsonl); dec.More(); {
		var e event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	// Every window must produce the three decision kinds plus a reward
	// per agent; the admission controller admits the harvest actions.
	for _, k := range []obs.EventKind{
		obs.KindHarvest, obs.KindMakeHarvestable, obs.KindSetPriority,
		obs.KindReward, obs.KindAdmissionAdmit,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded (histogram: %v)", k, kinds)
		}
	}
	// The prefilled device under sustained writes must collect garbage.
	if kinds[obs.KindGCRun] == 0 {
		t.Errorf("no gc_run events recorded")
	}
	for _, e := range events {
		if e.At < 0 || e.Seq == 0 {
			t.Fatalf("unstamped event %+v", e)
		}
	}

	reg := opt.Obs.Registry()
	out := scrape(t, reg)
	for _, want := range []string{
		"fleetio_vssd_bandwidth_bytes_per_second",
		"fleetio_vssd_iops",
		"fleetio_vssd_p99_seconds",
		"fleetio_vssd_queue_depth",
		"fleetio_ftl_gc_runs_total",
		"fleetio_ftl_alloc_stalls_total",
		"fleetio_gsb_created_total",
		"fleetio_admission_admitted_total",
		"fleetio_obs_samples_total",
		"fleetio_sim_time_seconds",
		"fleetio_sim_events_total",
	} {
		if !strings.Contains(out, "# TYPE "+want+" ") {
			t.Errorf("registry missing %s", want)
		}
	}
	if !strings.Contains(out, `fleetio_vssd_iops{vssd="0",name="YCSB-0"}`) {
		t.Errorf("per-vSSD labelled series missing:\n%s", out[:min(len(out), 600)])
	}
	if reg.Gauge("fleetio_obs_samples_total", "").Value() == 0 {
		t.Error("sampler never ticked")
	}
	if reg.Gauge("fleetio_sim_time_seconds", "").Value() == 0 {
		t.Error("virtual clock gauge never set")
	}
	if reg.Counter("fleetio_sim_events_total", "").Value() == 0 {
		t.Error("engine event counter never set")
	}
}

// TestCalibrateUnobserved pins the contract that calibration runs leave
// no residue in the caller's observer.
func TestCalibrateUnobserved(t *testing.T) {
	opt := fastOptions()
	opt.Duration = 2 * opt.Window
	opt.Warmup = 2 * opt.Window
	opt.Obs = obs.NewObserver()
	Calibrate(Pair("YCSB", "TeraSort"), opt)
	if n := opt.Obs.Recorder().Len(); n != 0 {
		t.Fatalf("calibration leaked %d events into the observer", n)
	}
	if out := scrape(t, opt.Obs.Registry()); out != "" {
		t.Fatalf("calibration registered metric families:\n%s", out)
	}
}

// scrape returns reg's /metrics page, served the way -http serves it.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
