package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"spatl/internal/algo"
	"spatl/internal/fl"
	"spatl/internal/flnet"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
)

// The timing wrappers must keep every transport on its normal code
// path. A wrapped federation's zero-time journal — every lifecycle
// event the transport emits, in order — must therefore be
// byte-identical to the unwrapped one, on each path the workloads use.
// The journals are compared together with the count of every span the
// cores recorded: a wrapper hiding algo.BatchCollector, say, leaves the
// journal alone but turns one agg.collect span per shard frame into one
// per upload.

// testSpec is a tiny federation: fast, but still streaming, batching
// and sparse (SPATL) where the workloads are.
func testSpec(algoName string) scenario.Spec {
	return scenario.Spec{
		Algo: algoName, Arch: "mlp", Classes: 3, H: 4, W: 4, Clients: 3, PerClient: 30,
		Rounds: 3, LocalEpochs: 1, Seed: 5,
	}.WithDefaults()
}

// zeroTimeTel returns a telemetry set journaling into buf with
// timestamps and durations zeroed.
func zeroTimeTel(buf *bytes.Buffer) *telemetry.Set {
	tel := telemetry.New(buf)
	tel.Journal.SetZeroTime(true)
	return tel
}

// wrapCores wraps an aggregator and trainers as a traced run does.
func wrapCores(t *testing.T, agg algo.Aggregator, trainers []algo.Trainer) (algo.Aggregator, []algo.Trainer) {
	t.Helper()
	clock := newRecorder()
	wa, err := wrapAgg(agg, clock, true)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]algo.Trainer(nil), trainers...)
	if err := wrapTrainers(out, clock); err != nil {
		t.Fatal(err)
	}
	return wa, out
}

func simJournal(t *testing.T, wrapped bool) []byte {
	var buf bytes.Buffer
	tel := zeroTimeTel(&buf)
	spec := testSpec("spatl")
	env, err := scenario.BuildEnv(spec, tel)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := scenario.Lookup(spec.Algo)
	if err != nil {
		t.Fatal(err)
	}
	p := scenario.Params{Seed: spec.Seed}
	cfg := env.AlgoConfig()
	var agg algo.Aggregator = entry.NewAggregator(env.Global, p, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = entry.NewTrainer(c, p, cfg)
	}
	if wrapped {
		agg, trainers = wrapCores(t, agg, trainers)
	}
	sim := fl.NewSim(env, agg, trainers)
	for r := 0; r < spec.Rounds; r++ {
		sim.Round(r, env.SampleClients())
	}
	return journalAndSpans(t, tel, &buf)
}

func tcpJournal(t *testing.T, wrapped bool) []byte {
	var buf bytes.Buffer
	tel := zeroTimeTel(&buf)
	spec := testSpec("fedavg")
	env, err := scenario.BuildEnv(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := scenario.Lookup(spec.Algo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.AlgoConfig()
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr: "127.0.0.1:0", Clients: spec.Clients, Rounds: spec.Rounds, Seed: spec.Seed, Tel: tel,
		StragglerTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var agg algo.Aggregator = entry.NewAggregator(env.Global, scenario.Params{}, cfg)
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = entry.NewTrainer(c, scenario.Params{}, cfg)
	}
	if wrapped {
		agg, trainers = wrapCores(t, agg, trainers)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(trainers))
	for i, tr := range trainers {
		wg.Add(1)
		go func(i int, tr algo.Trainer) {
			defer wg.Done()
			errs[i] = flnet.RunClient(srv.Addr(), uint32(i), env.Clients[i].Train.Len(), tr)
		}(i, tr)
	}
	runErr := srv.Run(agg)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return journalAndSpans(t, tel, &buf)
}

func treeJournal(t *testing.T, wrapped bool) []byte {
	var buf bytes.Buffer
	tel := zeroTimeTel(&buf)
	const sub = 9
	s := newTreeSetup(sub)
	n := treeEdges * treeClientsPerEdge
	root, err := flnet.NewTreeServer(flnet.TreeServerConfig{
		Addr: "127.0.0.1:0", Shards: treeEdges, Clients: n, Rounds: 2, PerRound: n, Seed: sub, Tel: tel,
		StragglerTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var agg algo.Aggregator = algo.NewFedAvgAggregator(models.Build(treeModel, sub), algo.Config{NumClients: n, Seed: sub})
	if wrapped {
		agg, _ = wrapCores(t, agg, nil)
	}
	var wg sync.WaitGroup
	errs := make([]error, treeEdges)
	for e := 0; e < treeEdges; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			_, errs[e] = runEdge(root.Addr(), e, s)
		}(e)
	}
	runErr := root.Run(agg)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for e, err := range errs {
		if err != nil {
			t.Fatalf("edge %d: %v", e, err)
		}
	}
	return journalAndSpans(t, tel, &buf)
}

// journalAndSpans flushes the journal and appends the span counts.
func journalAndSpans(t *testing.T, tel *telemetry.Set, buf *bytes.Buffer) []byte {
	t.Helper()
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	hists := tel.Reg.Snapshot().Histograms
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(buf, "%s count=%d\n", name, hists[name].Count)
	}
	return buf.Bytes()
}

func TestWrappedJournalsMatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		journal func(*testing.T, bool) []byte
	}{
		{"sim", simJournal},
		{"tcp", tcpJournal},
		{"tree", treeJournal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, wrapped := tc.journal(t, false), tc.journal(t, true)
			if len(plain) == 0 {
				t.Fatal("empty journal")
			}
			if !bytes.Equal(plain, wrapped) {
				t.Fatalf("wrapped journal differs from unwrapped:\n--- unwrapped\n%s\n--- wrapped\n%s", plain, wrapped)
			}
		})
	}
}
