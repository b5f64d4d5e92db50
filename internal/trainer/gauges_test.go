package trainer

import (
	"bufio"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunExportsGauges runs the synthetic trainer with a registry attached
// and checks the per-round training series end up scrapeable.
func TestRunExportsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(Config{Seed: 5, Workers: 2, Episodes: 4, EvalEvery: 1, Obs: reg}, synthEvalEnv)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	names := strings.Join(metricNames(t, reg), "\n")
	for _, want := range []string{
		"fleetio_train_round",
		"fleetio_train_mean_reward",
		"fleetio_train_approx_kl",
		"fleetio_train_policy_loss",
		"fleetio_train_value_loss",
		"fleetio_train_entropy",
		"fleetio_train_transitions_per_second",
		"fleetio_train_eval_score",
		"fleetio_train_best_score",
		"fleetio_train_episodes_total",
		"fleetio_train_transitions_total",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("registry missing %s", want)
		}
	}
	last := res.rounds[len(res.rounds)-1]
	if got := reg.Gauge("fleetio_train_round", "").Value(); got != float64(last.Round) {
		t.Errorf("round gauge %v, want %v", got, last.Round)
	}
	var wantEps, wantTrans float64
	for _, rs := range res.rounds {
		wantEps += float64(rs.Episodes)
		wantTrans += float64(rs.Transitions)
	}
	if got := reg.Counter("fleetio_train_episodes_total", "").Value(); got != wantEps {
		t.Errorf("episodes counter %v, want %v", got, wantEps)
	}
	if got := reg.Counter("fleetio_train_transitions_total", "").Value(); got != wantTrans {
		t.Errorf("transitions counter %v, want %v", got, wantTrans)
	}
	if reg.Gauge("fleetio_train_transitions_per_second", "").Value() <= 0 {
		t.Error("throughput gauge not set")
	}
}

// TestRunNilObsUnchanged pins that a nil registry costs nothing and
// changes nothing: the same run with and without Obs produces identical
// models.
func TestRunNilObsUnchanged(t *testing.T) {
	run := func(reg *obs.Registry) []float64 {
		res, err := Run(Config{Seed: 5, Workers: 2, Episodes: 4, Obs: reg}, synthEnv)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Final.Params()
	}
	a := run(nil)
	b := run(obs.NewRegistry())
	if len(a) != len(b) {
		t.Fatalf("param counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("param %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// metricNames scrapes reg the way -http serves it and returns the names of
// its metric families, in registration order.
func metricNames(t *testing.T, reg *obs.Registry) []string {
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
	var names []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	return names
}
