package fl

import (
	"bytes"
	"math"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// runFederation drives a fresh FedAvg federation for the given shard
// count (0 = flat Sim) and returns the final global state.
func runFederation(t *testing.T, shards, rounds int) []float32 {
	t.Helper()
	cfg := quickCfg(19)
	cfg.LocalEpochs = 1
	cfg.DropRate = 0.25 // exercise the drop path in both transports
	env := testEnv(t, 6, cfg)
	acfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, acfg)
	}
	agg := algo.NewFedAvgAggregator(env.Global, acfg)
	sel := make([]int, env.Cfg.NumClients)
	for i := range sel {
		sel[i] = i
	}
	if shards > 0 {
		env.Topo = Topology{Kind: TopoSharded, Shards: shards}
	}
	sim := NewSim(env, agg, trainers)
	for r := 0; r < rounds; r++ {
		sim.Round(r, sel)
	}
	return env.Global.State(models.ScopeAll)
}

// TestShardedSimMatchesFlat: the shard-pooling round is bitwise
// identical to the flat Sim round at every shard count — the tree is a
// collection topology, not an arithmetic change.
func TestShardedSimMatchesFlat(t *testing.T) {
	const rounds = 2
	want := runFederation(t, 0, rounds)
	for _, shards := range []int{1, 3, 4} {
		got := runFederation(t, shards, rounds)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: state length %d vs %d", shards, len(got), len(want))
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("shards=%d: state[%d] differs bitwise: %x vs %x",
					shards, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// TestMassiveShardedMatchesFlat: the synthetic massive federation folds
// to the identical global state whether uploads flow through the shard
// wire format or the flat collect path, and reruns are deterministic.
func TestMassiveShardedMatchesFlat(t *testing.T) {
	base := MassiveConfig{Clients: 2000, PerRound: 300, Rounds: 2, Seed: 9}
	flat := base
	flat.FlatCollect = true
	fr, err := RunMassive(flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 7, 32} {
		cfg := base
		cfg.Shards = shards
		sr, err := RunMassive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Folded != fr.Folded {
			t.Fatalf("shards=%d: folded %d vs flat %d", shards, sr.Folded, fr.Folded)
		}
		if len(sr.FinalState) != len(fr.FinalState) {
			t.Fatalf("shards=%d: state length mismatch", shards)
		}
		for j := range fr.FinalState {
			if math.Float32bits(sr.FinalState[j]) != math.Float32bits(fr.FinalState[j]) {
				t.Fatalf("shards=%d: state[%d] differs bitwise", shards, j)
			}
		}
		again, err := RunMassive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range sr.FinalState {
			if math.Float32bits(again.FinalState[j]) != math.Float32bits(sr.FinalState[j]) {
				t.Fatalf("shards=%d: rerun not deterministic at state[%d]", shards, j)
			}
		}
	}
}

// TestMassiveHundredThousandClients: a 100k-client federation completes
// a full sampled round in-process through the sharded tree.
func TestMassiveHundredThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	res, err := RunMassive(MassiveConfig{
		Clients: 100_000, PerRound: 5_000, Shards: 64, Rounds: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 5_000 {
		t.Fatalf("folded %d uploads, want 5000", res.Folded)
	}
	if res.ShardPushes == 0 || len(res.FinalState) == 0 {
		t.Fatalf("round did not complete: pushes=%d stateLen=%d", res.ShardPushes, len(res.FinalState))
	}
}

// TestMassiveQuorumLateFold: with OnTimeFrac < 1 rounds close at quorum
// and stragglers fold into the next round — visible in the result, the
// journal (quorum_reached, late_upload) and the telemetry registry.
func TestMassiveQuorumLateFold(t *testing.T) {
	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	res, err := RunMassive(MassiveConfig{
		Clients: 500, PerRound: 120, Shards: 8, Rounds: 3,
		OnTimeFrac: 0.7, Seed: 21, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Late == 0 {
		t.Fatal("no late uploads at OnTimeFrac=0.7")
	}
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	j := journal.Bytes()
	if !bytes.Contains(j, []byte(`"ev":"quorum_reached"`)) {
		t.Fatalf("journal records no quorum_reached events:\n%s", j)
	}
	if !bytes.Contains(j, []byte(`"ev":"late_upload"`)) {
		t.Fatalf("journal records no late_upload events:\n%s", j)
	}
	snap := tel.Reg.Snapshot()
	if snap.Counters["fl.late_uploads"] != res.Late {
		t.Fatalf("registry sees %d late uploads, result %d",
			snap.Counters["fl.late_uploads"], res.Late)
	}
	// Late folds count toward Folded too: with final-round stragglers
	// never landing, total folds stay below total samples.
	if res.Folded >= int64(3*120) {
		t.Fatalf("folded %d of %d sampled — final-round stragglers should be unfolded", res.Folded, 3*120)
	}
}
