package hetero

import (
	"spatl/internal/algo"
	"spatl/internal/fl"
	"spatl/internal/models"
)

// FL adapts the heterogeneous aggregator/trainer pair to the
// simulation's Algorithm interface, mirroring the baselines in
// internal/fl: wire the aggregator around the global model and one
// trainer per client, delegate rounds to the transport driver.
type FL struct {
	Opts Options

	sim *fl.Sim
	agg *Aggregator
}

// Name implements fl.Algorithm.
func (*FL) Name() string { return "hetero" }

// Setup implements fl.Algorithm.
func (f *FL) Setup(env *fl.Env) {
	cfg := env.AlgoConfig()
	f.agg = NewAggregator(env.Global, f.Opts, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = NewTrainer(c, f.Opts, cfg)
	}
	f.sim = fl.NewSim(env, f.agg, trainers)
}

// Round implements fl.Algorithm.
func (f *FL) Round(env *fl.Env, round int, selected []int) { f.sim.Round(round, selected) }

// EvalModel implements fl.Algorithm: a client deploys its cluster's
// full-width model, not a single global one.
func (f *FL) EvalModel(env *fl.Env, c *fl.Client) *models.SplitModel {
	f.agg.InstallClientModel(c.ID, c.Model)
	return c.Model
}

// Aggregator exposes the live aggregator (assignments, cluster models,
// per-width byte counters) for harness-side reporting.
func (f *FL) Aggregator() *Aggregator { return f.agg }
