// Package core implements SPATL — Salient Parameter Aggregation and
// Transfer Learning for heterogeneous federated learning (SC 2022).
//
// SPATL differs from the uniform-model baselines in three ways, each
// independently switchable for the paper's ablations (§V-F):
//
//  1. Heterogeneous knowledge transfer (§IV-A): only the encoder is
//     shared with the aggregation server; every client keeps a private
//     predictor head that adapts the shared representation to its
//     non-IID data.
//  2. Salient parameter selection (§IV-B): a pre-trained GNN+PPO agent,
//     fine-tuned per client (MLP head only), selects the encoder's
//     salient filters; only the selected parameters and their index
//     ranges are uploaded, and the server aggregates per index (eq. 12).
//  3. Generic-parameter gradient control (§IV-C): SCAFFOLD-style control
//     variates correct gradient drift, but only on the encoder (the
//     generic parameters); the predictor's gradients stay heterogeneous.
//
// The algorithm itself — aggregator and trainer — lives in the
// transport-agnostic internal/algo package, shared with the TCP
// transport (internal/flnet); this package adapts it to the simulation's
// fl.Algorithm interface and adds the cold-start transfer path for
// never-selected clients (eq. 4) plus the agent pre-training entry
// point used by the experiment harness.
package core

import (
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/prune"
)

// Options configures SPATL; it aliases the transport-agnostic
// algo.SPATLOptions. The zero value enables everything with the paper's
// defaults; the Disable* switches drive the ablation studies.
type Options = algo.SPATLOptions

// Client aliases fl.Client for readability of the public API.
type Client = fl.Client

// SPATL implements fl.Algorithm by wiring the shared algo.SPATL core
// into the in-process transport.
type SPATL struct {
	Opts Options

	sim      *fl.Sim
	agg      *algo.SPATLAggregator
	trainers []*algo.SPATLTrainer

	// LastSelections records each client's most recent selection, for
	// the inference-acceleration analysis (§V-D).
	LastSelections map[int]*prune.Selection
}

// New constructs a SPATL instance.
func New(opts Options) *SPATL {
	return &SPATL{
		Opts:           opts.WithDefaults(),
		LastSelections: map[int]*prune.Selection{},
	}
}

// Name implements fl.Algorithm.
func (s *SPATL) Name() string { return "spatl" }

// ControlVariate exposes the server control variate over the encoder's
// trainable parameters (read-only use).
func (s *SPATL) ControlVariate() []float32 { return s.agg.ControlVariate() }

// Setup implements fl.Algorithm.
func (s *SPATL) Setup(env *fl.Env) {
	cfg := env.AlgoConfig()
	s.agg = algo.NewSPATLAggregator(env.Global, s.Opts, cfg)
	s.trainers = make([]*algo.SPATLTrainer, len(env.Clients))
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		s.trainers[i] = algo.NewSPATLTrainer(c, s.Opts, cfg)
		trainers[i] = s.trainers[i]
	}
	s.sim = fl.NewSim(env, s.agg, trainers)
}

// Round implements fl.Algorithm: one SPATL communication round.
func (s *SPATL) Round(env *fl.Env, round int, selected []int) {
	s.sim.Round(round, selected)
	for _, ci := range selected {
		if sel := s.trainers[ci].LastSelection; sel != nil {
			s.LastSelections[ci] = sel
		}
	}
}

// EvalModel implements fl.Algorithm: the client's deployed model is the
// current global encoder composed with its private predictor. The global
// encoder state is installed into the client's model (what a client does
// before deployment, §IV-A). Inference acceleration (§V-D) additionally
// prunes this model to the client's salient sub-network; see
// prune.ZeroPruned / prune.Extract and the inference experiment.
func (s *SPATL) EvalModel(env *fl.Env, c *Client) *models.SplitModel {
	scope := s.Opts.Scope()
	st := env.Global.StateInto(scope, comm.GetF32(env.Global.StateLen(scope)))
	c.Model.SetState(scope, st)
	comm.PutF32(st)
	return c.Model
}

// ColdStart adapts a client that never participated in training (eq. 4):
// it downloads the current global encoder and fits only its local
// predictor, leaving the shared representation untouched.
func (s *SPATL) ColdStart(env *fl.Env, c *Client, epochs int, rng *rand.Rand) {
	scope := s.Opts.Scope()
	n := env.Global.StateLen(scope)
	st := env.Global.StateInto(scope, comm.GetF32(n))
	payload := env.EncodeDenseInto(comm.GetBuf(env.DensePayloadLen(n)), st)
	comm.PutF32(st)
	env.Meter.AddDown(len(payload))
	dl := mustDenseInto(comm.GetF32(n), payload)
	c.Model.SetState(scope, dl)
	comm.PutF32(dl)
	comm.PutBuf(payload)
	fl.LocalSGD(c, fl.LocalOpts{
		Params: c.Model.PredictorParams(), Epochs: epochs, BatchSize: env.Cfg.BatchSize,
		LR: env.Cfg.LR, Momentum: env.Cfg.Momentum, WeightDecay: env.Cfg.WeightDecay,
		FreezeEncoder: true,
	}, rng)
}

// mustDenseInto decodes into dst (typically from comm.GetF32), panicking
// on corruption — the simulation transports bytes in-process.
func mustDenseInto(dst []float32, buf []byte) []float32 {
	v, err := comm.DecodeDenseAnyInto(dst, buf)
	if err != nil {
		panic(err)
	}
	return v
}
