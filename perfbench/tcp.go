package main

import (
	"fmt"
	"sync"
	"time"

	"spatl/internal/algo"
	"spatl/internal/flnet"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
)

// fedavg-vgg11-tcp: dense FedAvg on VGG-11 geometry. Two real clients
// train over loopback TCP against flnet.Server, one connection each;
// every round waits for both uploads (a closed loop). VGG's wide leaf
// convolutions, BN and max-pools use the kernels differently from
// ResNet's narrow residual blocks, and this is the workload that runs
// the dense encode/decode path over real sockets.

// vggTarget is the mean client accuracy the federation must reach.
// Over 100 derived seeds it fell in rounds 4 to 6 of 7, and the best
// accuracy of the run was never below 0.50.
const vggTarget = 0.40

// vggSpec is the workload's task (dataset, partition, initial model).
// The noisier data and lower rate make accuracy climb over the whole
// run instead of saturating in two rounds.
func vggSpec() scenario.Spec {
	return scenario.Spec{
		Algo: "fedavg", Arch: "vgg11", Clients: 2, Noise: 1.0, LR: 0.01,
		LocalEpochs: 1, Rounds: 7, Seed: 1,
	}.WithDefaults()
}

func init() {
	register(&workload{
		name:       "fedavg-vgg11-tcp",
		fedSeconds: 1.75,
		fed:        runVGG,
		probe: func(sub int64) probeResult {
			return trainProbe(vggSpec(), sub)
		},
		decode:  decodeDense,
		overTCP: true,
	})
}

func runVGG(sub int64, traced bool) (*fedRun, error) {
	spec := vggSpec()
	f := &fedRun{sub: sub, traced: traced, epochs: spec.LocalEpochs}
	tel := newTel(traced)
	// Clients own their telemetry set (no journal: client events would
	// interleave nondeterministically); both clients share one.
	var ctel *telemetry.Set
	if traced {
		reg := telemetry.NewRegistry()
		ctel = &telemetry.Set{Reg: reg, Trace: telemetry.NewTracer(reg)}
	}

	t0 := time.Now()
	env, err := scenario.BuildEnv(spec, nil)
	if err != nil {
		return nil, err
	}
	f.buildS = since(t0)
	f.setupS = f.buildS
	reseed(env, sub)

	entry, err := scenario.Lookup(spec.Algo)
	if err != nil {
		return nil, err
	}
	p := scenario.Params{Seed: sub}
	cfg := env.AlgoConfig()
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr: "127.0.0.1:0", Clients: spec.Clients, Rounds: spec.Rounds, PerRound: spec.Clients,
		Seed: sub, Tel: tel, HelloTimeout: time.Minute, StragglerTimeout: time.Minute, WriteTimeout: time.Minute,
	})
	if err != nil {
		return nil, err
	}
	clock := newRecorder()
	agg, err := wrapAgg(entry.NewAggregator(env.Global, p, cfg), clock, traced)
	if err != nil {
		return nil, err
	}
	f.agg = agg
	tr := &tracker{f: f, clients: env.Clients, target: vggTarget,
		model: func(*algo.Client) *models.SplitModel { return env.Global }}
	agg.after = tr.eval

	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = entry.NewTrainer(c, p, cfg)
	}
	if traced {
		if err := wrapTrainers(trainers, clock); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, len(env.Clients))
	for i, c := range env.Clients {
		wg.Add(1)
		go func(i, n int, t algo.Trainer) {
			defer wg.Done()
			clientErrs[i] = flnet.RunClientOpts(srv.Addr(), uint32(i), n, t, flnet.ClientOptions{Tel: ctel})
		}(i, c.Train.Len(), trainers[i])
	}
	f.rt0 = readRuntime()
	runErr := srv.Run(agg)
	wg.Wait()
	agg.after = nil // drop the closure's hold on the set-up
	f.rt1 = readRuntime()
	if runErr != nil {
		return nil, fmt.Errorf("server: %w", runErr)
	}
	for i, err := range clientErrs {
		if err != nil {
			f.failed++
			f.problem("client %d: %v", i, err)
		}
	}
	f.spans, f.reg = clock.snapshot(), tel.Reg
	if ctel != nil {
		f.creg = ctel.Reg
	}
	f.digest = digestState(env.Global)
	f.checkBytes(srv.UpPayloadBytes, srv.DownPayloadBytes, spec.Clients)
	f.countUploads()
	f.failed += srv.Drops() + srv.Errors() + agg.Dropped()
	f.requireTarget(vggTarget)
	return f, nil
}
