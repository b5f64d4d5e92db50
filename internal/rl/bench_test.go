package rl

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/sim"
)

// BenchmarkTrainBatch measures a full PPO update (GAE + epochs passes of
// minibatched forward/backward) on a FleetIO-sized learner over a
// 128-transition rollout. Train drains its buffer, so the benchmark keeps
// the transitions and refills between iterations (128 struct copies — noise
// next to an update).
func BenchmarkTrainBatch(b *testing.B) {
	const stateDim = 110 // DefaultHistoryWindows * StatesPerWindow
	rng := sim.NewRNG(7)
	net := nn.NewActorCritic(stateDim, 50, []int{5, 5, 3}, rng)
	p := New(net, DefaultConfig(), rng)
	steps := make([]Transition, 0, 128)
	for i := 0; i < cap(steps); i++ {
		state := make([]float64, stateDim)
		for j := range state {
			state[j] = rng.Float64()
		}
		a, lp, v := p.Act(state)
		steps = append(steps, Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: rng.Float64()})
	}
	var buf Buffer
	refill := func() {
		for _, t := range steps {
			buf.Add(t)
		}
	}
	refill()
	p.Train(&buf, 0) // size scratch outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		p.Train(&buf, 0)
	}
}
