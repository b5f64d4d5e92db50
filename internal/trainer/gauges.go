package trainer

import "repro/internal/obs"

// trainGauges holds the registry handles for the per-round training
// metrics exported on /metrics. All values are set from the learner
// goroutine only; the registry makes the reads on the HTTP scrape path
// safe without extra locking.
type trainGauges struct {
	round       *obs.Metric
	meanReward  *obs.Metric
	policyLoss  *obs.Metric
	valueLoss   *obs.Metric
	entropy     *obs.Metric
	approxKL    *obs.Metric
	transPerSec *obs.Metric
	evalScore   *obs.Metric
	bestScore   *obs.Metric
	episodes    *obs.Metric
	transitions *obs.Metric
}

// newTrainGauges registers the training metric family; a nil registry
// yields nil gauges whose Set calls are no-ops.
func newTrainGauges(reg *obs.Registry) *trainGauges {
	return &trainGauges{
		round:       reg.Gauge("fleetio_train_round", "Last completed training round (0-indexed)."),
		meanReward:  reg.Gauge("fleetio_train_mean_reward", "Mean per-transition reward of the last round."),
		policyLoss:  reg.Gauge("fleetio_train_policy_loss", "PPO clipped surrogate loss of the last update."),
		valueLoss:   reg.Gauge("fleetio_train_value_loss", "Critic MSE loss of the last update."),
		entropy:     reg.Gauge("fleetio_train_entropy", "Mean policy entropy of the last update."),
		approxKL:    reg.Gauge("fleetio_train_approx_kl", "Approximate KL divergence of the last update."),
		transPerSec: reg.Gauge("fleetio_train_transitions_per_second", "Worker-pool collection throughput of the last round."),
		evalScore:   reg.Gauge("fleetio_train_eval_score", "Held-out eval score of the last evaluated snapshot."),
		bestScore:   reg.Gauge("fleetio_train_best_score", "Best held-out eval score so far."),
		episodes:    reg.Counter("fleetio_train_episodes_total", "Collection episodes completed."),
		transitions: reg.Counter("fleetio_train_transitions_total", "Transitions collected across all rounds."),
	}
}

// update publishes one finished round.
func (g *trainGauges) update(rs roundStats, bestScore float64) {
	g.round.Set(float64(rs.Round))
	g.meanReward.Set(rs.MeanReward)
	g.policyLoss.Set(rs.PolicyLoss)
	g.valueLoss.Set(rs.ValueLoss)
	g.entropy.Set(rs.Entropy)
	g.approxKL.Set(rs.ApproxKL)
	g.transPerSec.Set(rs.TransPerSec)
	if rs.EvalScore != nil {
		g.evalScore.Set(*rs.EvalScore)
		g.bestScore.Set(bestScore)
	}
	g.episodes.Add(float64(rs.Episodes))
	g.transitions.Add(float64(rs.Transitions))
}
