package trainer

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
)

// synthNet builds a tiny two-head actor-critic so trainer tests run in
// milliseconds instead of driving the full simulator.
func synthNet(rng *sim.RNG) *nn.ActorCritic {
	return nn.NewActorCritic(4, 8, []int{3, 3}, rng)
}

// synthCollect is a deterministic toy environment: random states, rewards
// that prefer matching head-0's action to the sign structure of the state.
func synthCollect(ep int, seed int64, net *nn.ActorCritic) *rl.Buffer {
	rng := sim.NewRNG(seed)
	ppo := rl.New(net, rl.DefaultConfig(), rng.Split(1))
	buf := &rl.Buffer{}
	state := make([]float64, 4)
	for t := 0; t < 40; t++ {
		for i := range state {
			state[i] = rng.Float64()*2 - 1
		}
		acts, lp, v := ppo.Act(state)
		target := 0
		if state[0] > 0 {
			target = 2
		}
		reward := -math.Abs(float64(acts[0] - target))
		buf.Add(rl.Transition{
			State:   append([]float64(nil), state...),
			Actions: acts,
			LogProb: lp,
			Value:   v,
			Reward:  reward,
		})
	}
	buf.MarkDone()
	return buf
}

func synthEval(seed int64, net *nn.ActorCritic) float64 {
	rng := sim.NewRNG(seed)
	ppo := rl.New(net, rl.DefaultConfig(), rng.Split(1))
	state := make([]float64, 4)
	sum := 0.0
	for t := 0; t < 40; t++ {
		for i := range state {
			state[i] = rng.Float64()*2 - 1
		}
		acts := ppo.ActGreedy(state)
		target := 0
		if state[0] > 0 {
			target = 2
		}
		sum += -math.Abs(float64(acts[0] - target))
	}
	return sum / 40
}

func synthConfig(seed int64, workers, episodes int) Config {
	return Config{Seed: seed, Workers: workers, Episodes: episodes}
}

// synthEnv is the toy environment without eval gating; synthEvalEnv adds it.
var (
	synthEnv     = Env{NewNet: synthNet, Collect: synthCollect}
	synthEvalEnv = Env{NewNet: synthNet, Collect: synthCollect, Eval: synthEval}
)

func encodeNet(t *testing.T, net *nn.ActorCritic) []byte {
	t.Helper()
	data, err := net.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// Two runs with the same seed and worker count must produce byte-identical
// encoded models — the reproducibility contract of the parallel collector.
func TestRunDeterministic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		a, err := Run(synthConfig(42, workers, 7), synthEnv)
		if err != nil {
			t.Fatalf("run A (workers=%d): %v", workers, err)
		}
		b, err := Run(synthConfig(42, workers, 7), synthEnv)
		if err != nil {
			t.Fatalf("run B (workers=%d): %v", workers, err)
		}
		if !bytes.Equal(encodeNet(t, a.Final), encodeNet(t, b.Final)) {
			t.Fatalf("workers=%d: same seed produced different models", workers)
		}
	}
}

func TestRunTrainsAndReportsRounds(t *testing.T) {
	res, err := Run(synthConfig(7, 2, 6), synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rounds); got != 3 {
		t.Fatalf("expected 3 rounds for 6 episodes / 2 workers, got %d", got)
	}
	for _, rs := range res.Rounds {
		if rs.Transitions != rs.Episodes*40 {
			t.Fatalf("round %d: %d transitions for %d episodes", rs.Round, rs.Transitions, rs.Episodes)
		}
	}
	// The toy reward is learnable; the policy should improve measurably.
	cfg := synthConfig(7, 2, 80)
	cfg.RL = rl.DefaultConfig()
	cfg.RL.LR = 5e-3
	cfg.EvalEvery = 5
	res, err = Run(cfg, synthEvalEnv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("eval gating enabled but no best model selected")
	}
	first := synthEval(999, nn.NewActorCritic(4, 8, []int{3, 3}, sim.NewRNG(41)))
	best := synthEval(999, res.Best)
	t.Logf("untrained eval %.4f, best eval %.4f", first, best)
	if best < first-0.05 {
		t.Fatalf("training made the policy worse: %.4f -> %.4f", first, best)
	}
}

// TestRunKeepsLROnlyRL: the learning rate is the one PPO setting. A zero
// RL trains at the paper's rate, exactly as the default config does, and a
// set rate is kept: it trains to other parameters.
func TestRunKeepsLROnlyRL(t *testing.T) {
	zero, err := Run(synthConfig(5, 2, 4), synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	def := synthConfig(5, 2, 4)
	def.RL = rl.DefaultConfig()
	b, err := Run(def, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeNet(t, zero.Final), encodeNet(t, b.Final)) {
		t.Fatal("a zero RL config trained to other params than the default config")
	}
	fast := synthConfig(5, 2, 4)
	fast.RL = rl.Config{LR: 5e-3}
	c, err := Run(fast, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeNet(t, zero.Final), encodeNet(t, c.Final)) {
		t.Fatal("the learning rate made no difference; the test cannot tell it was kept")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Episodes: 1}, Env{NewNet: synthNet}); err == nil {
		t.Fatal("missing Collect accepted")
	}
	if _, err := Run(Config{Episodes: 1}, Env{Collect: synthCollect}); err == nil {
		t.Fatal("missing NewNet accepted")
	}
	if _, err := Run(Config{}, synthEnv); err == nil {
		t.Fatal("zero Episodes accepted")
	}
}

func TestRunResumeContinues(t *testing.T) {
	dir := t.TempDir()
	cfg := synthConfig(11, 2, 4)
	cfg.CheckpointDir = dir
	first, err := Run(cfg, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rounds) != 2 {
		t.Fatalf("expected 2 rounds, got %d", len(first.Rounds))
	}
	// Same budget + resume: everything is already done.
	cfg.Resume = true
	same, err := Run(cfg, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if same.StartRound != 2 || len(same.Rounds) != 0 {
		t.Fatalf("resume at full budget reran rounds: start=%d ran=%d", same.StartRound, len(same.Rounds))
	}
	// Weights must match exactly (checkpoints persist params, not
	// optimizer moments, so compare Params rather than full gob).
	fp, sp := first.Final.Params(), same.Final.Params()
	for i := range fp {
		if fp[i] != sp[i] {
			t.Fatalf("resumed-no-op weight %d differs: %v != %v", i, fp[i], sp[i])
		}
	}
	// Larger budget + resume: continues from round 2 only.
	cfg.Episodes = 8
	more, err := Run(cfg, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if more.StartRound != 2 || len(more.Rounds) != 2 {
		t.Fatalf("resume continuation: start=%d ran=%d", more.StartRound, len(more.Rounds))
	}
	if got, want := more.Final.NumParams(), first.Final.NumParams(); got != want {
		t.Fatalf("resumed model has %d params, want %d", got, want)
	}
}

// TestRunResumeRejectsOtherWorkersOrSeed: a round is Workers episodes from
// the run's seed, so resuming a checkpoint under another worker count or
// seed is an error that names both values, not a silent skip or repeat.
func TestRunResumeRejectsOtherWorkersOrSeed(t *testing.T) {
	dir := t.TempDir()
	cfg := synthConfig(11, 2, 4)
	cfg.CheckpointDir = dir
	if _, err := Run(cfg, synthEnv); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed    int64
		workers int
		want    string
	}{
		{11, 3, "seed 11 and 2 workers, this run has seed 11 and 3 workers"},
		{12, 2, "seed 11 and 2 workers, this run has seed 12 and 2 workers"},
	} {
		resumed := synthConfig(c.seed, c.workers, 8)
		resumed.CheckpointDir, resumed.Resume = dir, true
		if _, err := Run(resumed, synthEnv); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("resume with seed %d, %d workers: err = %v, want one naming %q", c.seed, c.workers, err, c.want)
		}
	}
}

func TestRunMetricsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.jsonl")
	cfg := synthConfig(3, 2, 4)
	cfg.MetricsPath = path
	cfg.EvalEvery = 1
	res, err := Run(cfg, synthEvalEnv)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(res.Rounds) {
		t.Fatalf("%d JSONL lines for %d rounds", len(lines), len(res.Rounds))
	}
	for i, line := range lines {
		var rs RoundStats
		if err := json.Unmarshal([]byte(line), &rs); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rs.Round != i || rs.Transitions == 0 || rs.EvalScore == nil {
			t.Fatalf("line %d incomplete: %+v", i, rs)
		}
	}
}
