package fl

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// runQuorumFederation drives a FedAvg federation through the quorum
// topology with a zero-time journal and returns (final state, journal
// bytes, sim).
func runQuorumFederation(t *testing.T, onTime float64, rounds int) ([]float32, []byte, *Sim) {
	t.Helper()
	cfg := quickCfg(29)
	cfg.LocalEpochs = 1
	env := testEnv(t, 6, cfg)
	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	env.EnableTelemetry(tel)
	env.Topo = Topology{Kind: TopoQuorum, OnTimeFrac: onTime}
	acfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, acfg)
	}
	sim := NewSim(env, algo.NewFedAvgAggregator(env.Global, acfg), trainers)
	sel := make([]int, env.Cfg.NumClients)
	for i := range sel {
		sel[i] = i
	}
	for r := 0; r < rounds; r++ {
		sim.Round(r, sel)
	}
	tel.Journal.Flush()
	return env.Global.State(models.ScopeAll), journal.Bytes(), sim
}

// TestQuorumSimDeterministic: the async-quorum driver is bitwise
// reproducible — same seed, same final state, byte-identical zero-time
// journal — because the on-time decision is hashed, not raced.
func TestQuorumSimDeterministic(t *testing.T) {
	s1, j1, _ := runQuorumFederation(t, 0.6, 3)
	s2, j2, _ := runQuorumFederation(t, 0.6, 3)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("state lengths %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("state[%d] differs: %v vs %v", i, s1[i], s2[i])
		}
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("zero-time journals differ across identical quorum runs")
	}
}

// TestQuorumSimFoldsLateUploads: with OnTimeFrac < 1 some uploads defer
// and fold into the next round, journaled as quorum_reached and
// late_upload events; with OnTimeFrac 1 the round is synchronous.
func TestQuorumSimFoldsLateUploads(t *testing.T) {
	_, journal, sim := runQuorumFederation(t, 0.5, 3)
	j := string(journal)
	if !strings.Contains(j, telemetry.EvQuorum) {
		t.Fatal("no quorum_reached events in journal")
	}
	if !strings.Contains(j, telemetry.EvLateUpload) {
		t.Fatal("no late_upload events in journal (OnTimeFrac 0.5 over 6 clients x 3 rounds)")
	}
	// Late uploads from the final round stay pending, never folded:
	// exactly the final-round selections that journaled neither an
	// upload nor a drop.
	const lastRound, selected = 2, 6
	resolved := map[int]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var ev telemetry.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Round == lastRound && (ev.Ev == telemetry.EvClientUpload || ev.Ev == telemetry.EvDrop) {
			resolved[ev.Client] = true
		}
	}
	if want := selected - len(resolved); sim.Pending() != want {
		t.Fatalf("pending = %d, want %d (final-round selections without upload or drop)", sim.Pending(), want)
	}

	_, journal, _ = runQuorumFederation(t, 1.0, 2)
	j = string(journal)
	if strings.Contains(j, telemetry.EvQuorum) || strings.Contains(j, telemetry.EvLateUpload) {
		t.Fatal("synchronous quorum (OnTimeFrac 1) must not emit quorum/late events")
	}
}

// TestSimTopologySwitch: NewSim delivers by the environment's Topology
// — pooled shard pushes for the sharded tree, a quorum close for the
// quorum topology, neither for the flat default — and rejects an
// unknown kind.
func TestSimTopologySwitch(t *testing.T) {
	for _, tc := range []struct {
		topo          Topology
		shard, quorum bool
	}{
		{Topology{}, false, false},
		{Topology{Kind: TopoFlat}, false, false},
		{Topology{Kind: TopoSharded, Shards: 2}, true, false},
		{Topology{Kind: TopoQuorum, OnTimeFrac: 0.5}, false, true},
	} {
		env := testEnv(t, 2, quickCfg(3))
		var journal bytes.Buffer
		tel := telemetry.New(&journal)
		env.EnableTelemetry(tel)
		env.Topo = tc.topo
		acfg := env.AlgoConfig()
		trainers := make([]algo.Trainer, len(env.Clients))
		for i, c := range env.Clients {
			trainers[i] = algo.NewFedAvgTrainer(c, acfg)
		}
		NewSim(env, algo.NewFedAvgAggregator(env.Global, acfg), trainers).Round(0, []int{0, 1})
		tel.Journal.Flush()
		j := journal.String()
		if got := strings.Contains(j, telemetry.EvShardPush); got != tc.shard {
			t.Fatalf("topology %+v: shard_push journaled = %v, want %v", tc.topo, got, tc.shard)
		}
		if got := strings.Contains(j, telemetry.EvQuorum); got != tc.quorum {
			t.Fatalf("topology %+v: quorum_reached journaled = %v, want %v", tc.topo, got, tc.quorum)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSim accepted an unknown topology kind")
		}
	}()
	env := testEnv(t, 2, quickCfg(3))
	env.Topo = Topology{Kind: "ring"}
	NewSim(env, algo.NewFedAvgAggregator(env.Global, env.AlgoConfig()), nil)
}
