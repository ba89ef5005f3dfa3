package fl

import (
	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/prune"
)

// The four baseline algorithms are implemented once, transport-free, in
// internal/algo; this file adapts them to the simulation's Algorithm
// interface by wiring an aggregator around the global model and one
// trainer per client, then delegating rounds to the Sim transport.

// EffectiveLR re-exports algo.EffectiveLR for the simulation's callers.
func EffectiveLR(lr, momentum float64) float64 { return algo.EffectiveLR(lr, momentum) }

// weightedAverageSerial is the serial reference reduction (see
// algo.WeightedAverageSerial); retained for the determinism tests.
func weightedAverageSerial(states [][]float32, weights []float64) []float32 {
	return algo.WeightedAverageSerial(states, weights)
}

// weightedAverage is the deterministic parallel reduction (see
// algo.WeightedAverage).
func weightedAverage(states [][]float32, weights []float64) []float32 {
	return algo.WeightedAverage(states, weights)
}

// WeightedAverage exposes the deterministic parallel reduction for the
// benchmark harness: bitwise identical to the serial reference at any
// GOMAXPROCS.
func WeightedAverage(states [][]float32, weights []float64) []float32 {
	return algo.WeightedAverage(states, weights)
}

// FedAvg is the McMahan et al. baseline: clients train the full model
// locally; the server averages uploaded models weighted by local data
// size.
type FedAvg struct {
	sim *Sim
}

// Name implements Algorithm.
func (*FedAvg) Name() string { return "fedavg" }

// Setup implements Algorithm.
func (f *FedAvg) Setup(env *Env) {
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, cfg)
	}
	f.sim = NewSim(env, algo.NewFedAvgAggregator(env.Global, cfg), trainers)
}

// Round implements Algorithm.
func (f *FedAvg) Round(env *Env, round int, selected []int) { f.sim.Round(round, selected) }

// EvalModel implements Algorithm.
func (*FedAvg) EvalModel(env *Env, c *Client) *models.SplitModel { return env.Global }

// FedProx (Li et al.) augments FedAvg's local objective with a proximal
// term restraining drift from the global model; per-round payload equals
// FedAvg's.
type FedProx struct {
	sim *Sim
}

// Name implements Algorithm.
func (*FedProx) Name() string { return "fedprox" }

// Setup implements Algorithm.
func (f *FedProx) Setup(env *Env) {
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedProxTrainer(c, cfg)
	}
	f.sim = NewSim(env, algo.NewFedAvgAggregator(env.Global, cfg), trainers)
}

// Round implements Algorithm.
func (f *FedProx) Round(env *Env, round int, selected []int) { f.sim.Round(round, selected) }

// EvalModel implements Algorithm.
func (*FedProx) EvalModel(env *Env, c *Client) *models.SplitModel { return env.Global }

// SCAFFOLD (Karimireddy et al.) corrects client drift with control
// variates: the server holds c, each client cᵢ; local gradients receive
// c − cᵢ; clients upload both the model delta and the control delta, so
// the per-round payload is ≈2× FedAvg's — the trade-off the SPATL paper
// highlights.
type SCAFFOLD struct {
	sim *Sim
	agg *algo.SCAFFOLDAggregator
}

// Name implements Algorithm.
func (*SCAFFOLD) Name() string { return "scaffold" }

// Setup implements Algorithm.
func (s *SCAFFOLD) Setup(env *Env) {
	cfg := env.AlgoConfig()
	s.agg = algo.NewSCAFFOLDAggregator(env.Global, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewSCAFFOLDTrainer(c, cfg)
	}
	s.sim = NewSim(env, s.agg, trainers)
}

// Round implements Algorithm.
func (s *SCAFFOLD) Round(env *Env, round int, selected []int) { s.sim.Round(round, selected) }

// EvalModel implements Algorithm.
func (*SCAFFOLD) EvalModel(env *Env, c *Client) *models.SplitModel { return env.Global }

// ControlVariate exposes the server control variate (read-only use).
func (s *SCAFFOLD) ControlVariate() []float32 { return s.agg.ControlVariate() }

// FedNova (Wang et al.) normalizes each client's cumulative update by
// its local step count before aggregation, removing objective
// inconsistency under heterogeneous local work. The implementation
// includes the momentum variant: clients also ship their momentum
// buffers, which the server averages and redistributes — giving the ≈2×
// per-round uplink the SPATL paper reports for FedNova.
type FedNova struct {
	sim *Sim
	agg *algo.FedNovaAggregator
}

// Name implements Algorithm.
func (*FedNova) Name() string { return "fednova" }

// Setup implements Algorithm.
func (f *FedNova) Setup(env *Env) {
	cfg := env.AlgoConfig()
	f.agg = algo.NewFedNovaAggregator(env.Global, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedNovaTrainer(c, cfg)
	}
	f.sim = NewSim(env, f.agg, trainers)
}

// Round implements Algorithm.
func (f *FedNova) Round(env *Env, round int, selected []int) { f.sim.Round(round, selected) }

// EvalModel implements Algorithm.
func (*FedNova) EvalModel(env *Env, c *Client) *models.SplitModel { return env.Global }

// SSFL agrees on one global sparse sub-network during the first round
// (clients upload saliency scores, the server reduces them into a single
// channel mask) and then trains mask-static: every later round moves
// only the packed masked values — values-only frames in both directions,
// with the index ranges travelling exactly once after agreement. Like
// SPATL it shares only the encoder; predictors stay private.
type SSFL struct {
	Opts algo.SSFLOptions

	sim *Sim
	agg *algo.SSFLAggregator
}

// Name implements Algorithm.
func (*SSFL) Name() string { return "ssfl" }

// Setup implements Algorithm.
func (s *SSFL) Setup(env *Env) {
	cfg := env.AlgoConfig()
	s.agg = algo.NewSSFLAggregator(env.Global, s.Opts, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewSSFLTrainer(c, s.Opts, cfg)
	}
	s.sim = NewSim(env, s.agg, trainers)
}

// Round implements Algorithm.
func (s *SSFL) Round(env *Env, round int, selected []int) { s.sim.Round(round, selected) }

// EvalModel implements Algorithm: the global encoder composed with the
// client's private predictor, as for SPATL.
func (s *SSFL) EvalModel(env *Env, c *Client) *models.SplitModel {
	n := env.Global.StateLen(models.ScopeEncoder)
	st := env.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	c.Model.SetState(models.ScopeEncoder, st)
	comm.PutF32(st)
	return c.Model
}

// Selection exposes the agreed global selection (nil before agreement).
func (s *SSFL) Selection() *prune.Selection { return s.agg.Selection() }
