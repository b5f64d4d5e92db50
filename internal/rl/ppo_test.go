package rl

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/sim"
)

func newPPO(headSizes []int, stateDim int, seed int64) *PPO {
	rng := sim.NewRNG(seed)
	net := nn.NewActorCritic(stateDim, 16, headSizes, rng)
	cfg := DefaultConfig()
	cfg.LR = 3e-3 // faster for tiny test problems
	return New(net, cfg, rng)
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Gamma != 0.9 {
		t.Fatalf("gamma = %v, want 0.9 (Table 3)", cfg.Gamma)
	}
	if cfg.LR != 1e-4 {
		t.Fatalf("lr = %v, want 1e-4 (Table 3)", cfg.LR)
	}
	if cfg.MiniBatch != 32 {
		t.Fatalf("batch = %v, want 32 (Table 3)", cfg.MiniBatch)
	}
}

func TestActShapesAndLogProb(t *testing.T) {
	p := newPPO([]int{4, 3, 2}, 5, 1)
	state := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	actions, lp, _ := p.Act(state)
	if len(actions) != 3 {
		t.Fatalf("actions = %v", actions)
	}
	for k, hs := range []int{4, 3, 2} {
		if actions[k] < 0 || actions[k] >= hs {
			t.Fatalf("head %d action %d out of range", k, actions[k])
		}
	}
	if lp >= 0 {
		t.Fatalf("joint log-prob = %v, must be negative", lp)
	}
	// Joint log-prob of a 3-head uniform-ish policy must be ≤ per-head.
	if lp > math.Log(1.0/2.0) {
		t.Fatalf("log-prob %v implausibly high for 4*3*2 action space", lp)
	}
}

func TestActGreedyDeterministic(t *testing.T) {
	p := newPPO([]int{4, 3}, 4, 2)
	state := []float64{1, 2, 3, 4}
	a1 := p.ActGreedy(state)
	a2 := p.ActGreedy(state)
	for k := range a1 {
		if a1[k] != a2[k] {
			t.Fatal("greedy action not deterministic")
		}
	}
}

func TestGAEComputation(t *testing.T) {
	// Hand-checkable case: single transition, done, reward 1, value 0.
	p := newPPO([]int{2}, 2, 3)
	var buf Buffer
	state := []float64{0, 0}
	buf.Add(Transition{State: state, Actions: []int{0}, LogProb: math.Log(0.5), Value: 0, Reward: 1, Done: true})
	st := p.Train(&buf, 0)
	if st.Steps != 1 {
		t.Fatalf("steps = %d", st.Steps)
	}
	// advantage = reward - value = 1; return = 1.
	if math.Abs(st.MeanReturn-1) > 1e-9 {
		t.Fatalf("mean return = %v, want 1", st.MeanReturn)
	}
	if buf.Len() != 0 {
		t.Fatal("buffer must be consumed")
	}
}

func TestTrainEmptyBuffer(t *testing.T) {
	p := newPPO([]int{2}, 2, 4)
	var buf Buffer
	st := p.Train(&buf, 0)
	if st.Steps != 0 {
		t.Fatal("empty train must be a no-op")
	}
}

// A one-step bandit: action 1 of head 0 yields reward 1, action 0 yields
// 0. PPO must learn to prefer action 1.
func TestPPOLearnsBandit(t *testing.T) {
	p := newPPO([]int{2}, 2, 5)
	state := []float64{1, 0}
	for iter := 0; iter < 60; iter++ {
		var buf Buffer
		for i := 0; i < 64; i++ {
			a, lp, v := p.Act(state)
			r := 0.0
			if a[0] == 1 {
				r = 1
			}
			buf.Add(Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: r, Done: true})
		}
		p.Train(&buf, 0)
	}
	wins := 0
	for i := 0; i < 100; i++ {
		a, _, _ := p.Act(state)
		if a[0] == 1 {
			wins++
		}
	}
	if wins < 80 {
		t.Fatalf("bandit not learned: %d/100 optimal actions", wins)
	}
}

// Multi-head bandit: reward only when head0=2 AND head1=0. Checks that the
// joint log-prob machinery trains all heads.
func TestPPOLearnsJointBandit(t *testing.T) {
	p := newPPO([]int{3, 2}, 2, 6)
	state := []float64{0.5, -0.5}
	for iter := 0; iter < 120; iter++ {
		var buf Buffer
		for i := 0; i < 64; i++ {
			a, lp, v := p.Act(state)
			r := 0.0
			if a[0] == 2 && a[1] == 0 {
				r = 1
			}
			buf.Add(Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: r, Done: true})
		}
		p.Train(&buf, 0)
	}
	wins := 0
	for i := 0; i < 100; i++ {
		a, _, _ := p.Act(state)
		if a[0] == 2 && a[1] == 0 {
			wins++
		}
	}
	if wins < 70 {
		t.Fatalf("joint bandit not learned: %d/100", wins)
	}
}

// Contextual bandit: optimal action depends on the state. Checks the
// network actually conditions on input.
func TestPPOLearnsContextual(t *testing.T) {
	p := newPPO([]int{2}, 2, 7)
	states := [][]float64{{1, 0}, {0, 1}}
	best := []int{0, 1}
	for iter := 0; iter < 150; iter++ {
		var buf Buffer
		for i := 0; i < 64; i++ {
			s := states[i%2]
			a, lp, v := p.Act(s)
			r := 0.0
			if a[0] == best[i%2] {
				r = 1
			}
			buf.Add(Transition{State: s, Actions: a, LogProb: lp, Value: v, Reward: r, Done: true})
		}
		p.Train(&buf, 0)
	}
	for ctx := 0; ctx < 2; ctx++ {
		wins := 0
		for i := 0; i < 100; i++ {
			a, _, _ := p.Act(states[ctx])
			if a[0] == best[ctx] {
				wins++
			}
		}
		if wins < 70 {
			t.Fatalf("context %d not learned: %d/100", ctx, wins)
		}
	}
}

func TestValueLearnsReturns(t *testing.T) {
	// Constant reward 1 with γ=0.9 and non-terminal steps → value ≈ 10.
	p := newPPO([]int{2}, 2, 8)
	state := []float64{1, 1}
	value := func() float64 {
		_, v, _ := p.Net.ForwardBatch(state, 1)
		return v[0]
	}
	for iter := 0; iter < 150; iter++ {
		var buf Buffer
		for i := 0; i < 64; i++ {
			a, lp, v := p.Act(state)
			buf.Add(Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: 1, Done: false})
		}
		p.Train(&buf, value())
	}
	v := value()
	if v < 5 || v > 15 {
		t.Fatalf("value = %v, want ≈ 10 for discounted constant reward", v)
	}
}

func TestBufferMergeAndMarkDone(t *testing.T) {
	mk := func(rewards ...float64) *Buffer {
		b := &Buffer{}
		for _, r := range rewards {
			b.Add(Transition{Reward: r})
		}
		return b
	}
	a := mk(1, 2)
	a.MarkDone()
	b := mk(3)
	b.MarkDone()
	m := Merge(a, nil, b, mk())
	if m.Len() != 3 {
		t.Fatalf("merged %d transitions, want 3", m.Len())
	}
	steps := m.Steps()
	if !steps[1].Done || !steps[2].Done || steps[0].Done {
		t.Fatalf("episode boundaries wrong after merge: %+v", steps)
	}
	if got := m.MeanReward(); got != 2 {
		t.Fatalf("mean reward %v, want 2", got)
	}
	if got := (&Buffer{}).MeanReward(); got != 0 {
		t.Fatalf("empty mean reward %v", got)
	}
	// Merge copies: training (which resets the merged buffer) must not
	// clear the sources.
	m.Reset()
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("Merge aliased its sources")
	}
	(&Buffer{}).MarkDone() // must not panic on empty
}

func TestTrainReportsApproxKL(t *testing.T) {
	p := newPPO([]int{3}, 2, 6)
	var buf Buffer
	state := []float64{0.5, -0.5}
	for i := 0; i < 48; i++ {
		a, lp, v := p.Act(state)
		buf.Add(Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: float64(i % 2)})
	}
	st := p.Train(&buf, 0)
	if math.IsNaN(st.ApproxKL) || math.IsInf(st.ApproxKL, 0) {
		t.Fatalf("ApproxKL = %v", st.ApproxKL)
	}
	if st.ApproxKL == 0 {
		t.Fatal("ApproxKL stayed exactly zero across 4 epochs of updates")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std = %v", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd must be 0,0")
	}
}

// TestTrainBatchedMatchesScalar pins Train's minibatch loop against the
// per-sample oracle (oracle_test.go) bit for bit: learners with identical
// networks, RNG streams, and buffers must produce identical parameters and
// statistics — including on buffer sizes that leave a ragged final
// minibatch (50), fit in one (32) or are smaller than one (7), and across
// the episode boundaries the Done marks put inside the buffer.
func TestTrainBatchedMatchesScalar(t *testing.T) {
	for _, n := range []int{48, 50, 32, 7} {
		build := func() (*PPO, *Buffer) {
			rng := sim.NewRNG(41)
			net := nn.NewActorCritic(6, 16, []int{4, 3}, rng)
			cfg := DefaultConfig()
			cfg.LR = 3e-3
			p := New(net, cfg, rng)
			var buf Buffer
			state := make([]float64, 6)
			for i := 0; i < n; i++ {
				for j := range state {
					state[j] = rng.NormFloat64()
				}
				s := append([]float64(nil), state...)
				a, lp, v := p.Act(s)
				buf.Add(Transition{State: s, Actions: a, LogProb: lp, Value: v,
					Reward: rng.Float64(), Done: i%17 == 16})
			}
			return p, &buf
		}
		ps, bs := build()
		pb, bb := build()
		sts := trainPerSample(ps, bs, 0.3)
		stb := pb.Train(bb, 0.3)
		if sts != stb {
			t.Fatalf("n=%d: stats diverge:\noracle %+v\nTrain  %+v", n, sts, stb)
		}
		sp, bp := ps.Net.Params(), pb.Net.Params()
		for i := range sp {
			if sp[i] != bp[i] {
				t.Fatalf("n=%d: param %d diverges: %v != %v", n, i, sp[i], bp[i])
			}
		}
		// A second Train round exercises the weight-transpose invalidation
		// after optimizer steps.
		_, bs = build()
		_, bb = build()
		bs.steps, bb.steps = bs.steps[:n], bb.steps[:n]
		if sts, stb := trainPerSample(ps, bs, -0.1), pb.Train(bb, -0.1); sts != stb {
			t.Fatalf("n=%d round 2: stats diverge", n)
		}
		sp, bp = ps.Net.Params(), pb.Net.Params()
		for i := range sp {
			if sp[i] != bp[i] {
				t.Fatalf("n=%d round 2: param %d diverges", n, i)
			}
		}
	}
}

// TestActBatchMatchesScalar pins one b-row call of each acting mode against
// b one-row calls in row order — the form every single-state caller (Act,
// ActGreedy, core's per-agent passes) takes: same actions, log-probs,
// values, and — for the sampling mode — the same RNG stream consumption.
func TestActBatchMatchesScalar(t *testing.T) {
	const b, dim = 5, 6
	mk := func() *PPO { return newPPO([]int{4, 3, 2}, dim, 13) }
	p1, pb := mk(), mk()
	states := make([]float64, b*dim)
	rng := sim.NewRNG(99)
	for round := 0; round < 4; round++ {
		for i := range states {
			states[i] = rng.NormFloat64()
		}
		// Sampling mode: both learners share the seed and have consumed
		// their RNGs identically so far, so the b-row call must draw the
		// exact same actions as b one-row calls in row order.
		sa, sl, sv := pb.ActBatch(states, b)
		for r := 0; r < b; r++ {
			wantA, wantLP, wantV := p1.Act(states[r*dim : (r+1)*dim])
			for k := range wantA {
				if sa[r][k] != wantA[k] {
					t.Fatalf("sample round %d row %d head %d: action %d != %d", round, r, k, sa[r][k], wantA[k])
				}
			}
			if sl[r] != wantLP || sv[r] != wantV {
				t.Fatalf("sample round %d row %d: lp/v (%v,%v) != (%v,%v)", round, r, sl[r], sv[r], wantLP, wantV)
			}
		}
		// Greedy-with-eval mode.
		gotA, gotLP, gotV := pb.ActGreedyEvalBatch(states, b)
		for r := 0; r < b; r++ {
			wantA, wantLP, wantV := p1.ActGreedyEvalBatch(states[r*dim:(r+1)*dim], 1)
			for k := range wantA[0] {
				if gotA[r][k] != wantA[0][k] {
					t.Fatalf("round %d row %d head %d: action %d != %d", round, r, k, gotA[r][k], wantA[0][k])
				}
			}
			if gotLP[r] != wantLP[0] || gotV[r] != wantV[0] {
				t.Fatalf("round %d row %d: lp/v (%v,%v) != (%v,%v)", round, r, gotLP[r], gotV[r], wantLP[0], wantV[0])
			}
		}
		// Greedy mode.
		gg := pb.ActGreedyBatch(states, b)
		for r := 0; r < b; r++ {
			want := p1.ActGreedy(states[r*dim : (r+1)*dim])
			for k := range want {
				if gg[r][k] != want[k] {
					t.Fatalf("greedy round %d row %d head %d: %d != %d", round, r, k, gg[r][k], want[k])
				}
			}
		}
	}
	// Both learners must have consumed their RNG streams identically (only
	// the sampling mode draws).
	if one, many := p1.rng.Float64(), pb.rng.Float64(); one != many {
		t.Fatalf("RNG streams diverged: %v != %v", one, many)
	}
}

// TestTrainZeroSteadyStateAllocs guards Train's zero-allocation contract: after the first call sizes the scratch, a
// Train over a same-sized buffer must not allocate at all. Train consumes
// its buffer and refilling one allocates by design, so every measured call
// gets its own pre-filled buffer and testing.AllocsPerRun (GOMAXPROCS=1,
// averaged) measures Train alone. The earlier guard bracketed Train with
// process-wide runtime.ReadMemStats and failed intermittently on
// multi-core hosts with "1 allocations (16 or 32 bytes)": under Go 1.24
// that allocation is not Train's — this guard reports exactly 0 at
// -cpu 1,2,4 — but a runtime background goroutine's, which the
// process-wide counter attributed to whatever ran between the two reads.
func TestTrainZeroSteadyStateAllocs(t *testing.T) {
	p := newPPO([]int{5, 5, 3}, 60, 1)
	state := make([]float64, 60)
	const runs = 20
	bufs := make([]Buffer, runs+2) // size-scratch call + AllocsPerRun's warm-up + runs
	for i := range bufs {
		for j := 0; j < 32; j++ {
			a, lp, v := p.Act(state)
			bufs[i].Add(Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: 0.5})
		}
	}
	next := 0
	train := func() {
		p.Train(&bufs[next], 0)
		next++
	}
	train() // size all scratch
	if n := testing.AllocsPerRun(runs, train); n != 0 {
		t.Fatalf("steady-state Train makes %v allocations per call", n)
	}
}

// TestActBatchSteadyStateAllocs pins the inference paths: greedy acting
// reuses all scratch, at n rows and at the one row per-agent deployments
// use; the sampling/eval variants allocate exactly the per-row action
// slices that transitions retain.
func TestActBatchSteadyStateAllocs(t *testing.T) {
	p := newPPO([]int{5, 5, 3}, 60, 1)
	const b = 4
	states := make([]float64, b*60)
	p.ActGreedyBatch(states, b)
	if n := testing.AllocsPerRun(50, func() { p.ActGreedyBatch(states, b) }); n != 0 {
		t.Fatalf("ActGreedyBatch allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { p.ActGreedy(states[:60]) }); n != 0 {
		t.Fatalf("ActGreedy allocates %v per run", n)
	}
	// b actions slices (retained by callers) are the only allowed allocs.
	if n := testing.AllocsPerRun(50, func() { p.ActBatch(states, b) }); n > b+1 {
		t.Fatalf("ActBatch allocates %v per run, want <= %d", n, b+1)
	}
}
