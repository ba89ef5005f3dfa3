package main

import (
	"time"

	"spatl/internal/algo"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/scenario"
)

// spatl-sim: the paper's own federation. SPATL on ResNet-20 geometry,
// four Dirichlet(0.5) clients on the in-process flat fl.Sim, with the
// selection agent pre-trained during set-up. Every round selects all
// four clients and waits for all four uploads (a closed loop).

// spatlTarget is the mean client accuracy the federation must reach.
// Over 60 derived seeds it fell in rounds 6 to 10 of 12, and the best
// accuracy of the run was never below 0.79.
const spatlTarget = 0.75

// spatlSpec is the workload's task. Seed fixes the dataset, partition
// and initial model (client train sizes 60/109/80/37); the derived
// seeds drive everything random about the federation itself.
// FineTuneRounds covers every round, so all timed rounds fine-tune the
// agent and the round median does not straddle the regime change.
func spatlSpec() scenario.Spec {
	return scenario.Spec{
		Algo: "spatl", Seed: 1, LocalEpochs: 1, Rounds: 12,
		Params: scenario.Params{PretrainRounds: 1, AgentDim: 8, AgentHidden: 8, FineTuneRounds: 12},
	}.WithDefaults()
}

func init() {
	register(&workload{
		name:       "spatl-sim",
		fedSeconds: 3.6,
		fed:        runSPATL,
		probe: func(sub int64) probeResult {
			return trainProbe(spatlSpec(), sub)
		},
		decode: decodeSparsePair,
	})
}

func runSPATL(sub int64, traced bool) (*fedRun, error) {
	spec := spatlSpec()
	f := &fedRun{sub: sub, traced: traced, epochs: spec.LocalEpochs}
	tel := newTel(traced)

	t0 := time.Now()
	env, err := scenario.BuildEnv(spec, tel)
	if err != nil {
		return nil, err
	}
	f.buildS = since(t0)
	reseed(env, sub)
	pre := spec
	pre.Seed = sub
	t0 = time.Now()
	blob := scenario.PretrainAgentBlob(pre)
	f.pretrainS = since(t0)
	f.setupS = f.buildS + f.pretrainS

	p := spec.Params
	p.Seed, p.Pretrained = sub, blob
	entry, err := scenario.Lookup(spec.Algo)
	if err != nil {
		return nil, err
	}
	cfg := env.AlgoConfig()
	clock := newRecorder()
	agg, err := wrapAgg(entry.NewAggregator(env.Global, p, cfg), clock, traced)
	if err != nil {
		return nil, err
	}
	f.agg = agg
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = entry.NewTrainer(c, p, cfg)
	}
	if traced {
		if err := wrapTrainers(trainers, clock); err != nil {
			return nil, err
		}
	}
	// The deployed model of a SPATL client is the global encoder
	// composed with its private predictor, as core.SPATL.EvalModel
	// installs it.
	tr := &tracker{f: f, clients: env.Clients, target: spatlTarget,
		model: func(c *algo.Client) *models.SplitModel {
			c.Model.SetState(models.ScopeEncoder, env.Global.State(models.ScopeEncoder))
			return c.Model
		}}
	sim := fl.NewSim(env, agg, trainers)
	f.rt0 = readRuntime()
	for r := 0; r < spec.Rounds; r++ {
		sim.Round(r, env.SampleClients())
		tr.eval(r)
	}
	f.rt1 = readRuntime()
	f.spans, f.reg = clock.snapshot(), tel.Reg
	f.digest = digestState(env.Global)
	f.checkBytes(env.Meter.Up(), env.Meter.Down(), 0)
	f.countUploads()
	for _, r := range agg.rounds {
		f.failed += int64(r.Absent)
	}
	f.failed += agg.Dropped()
	f.requireTarget(spatlTarget)
	return f, nil
}
