package flnet

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/netsim"
	"spatl/internal/telemetry"
)

// treeFixture builds the shared federation inputs: spec, per-client
// datasets, and the algo config.
func treeFixture(t *testing.T, clients int, seed int64) (models.Spec, []fl.ClientData, algo.Config) {
	t.Helper()
	const classes = 4
	spec := models.Spec{Arch: "mlp", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.5}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*60, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	cd := make([]fl.ClientData, clients)
	for i := range cd {
		cd[i].Train, cd[i].Val = ds.Subset(parts[i]).Split(0.8)
	}
	cfg := algo.Config{NumClients: clients, LocalEpochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed}
	return spec, cd, cfg
}

// startTree spins up a root, its edges (one per ShardRange of the
// client-ID order) and the clients, and waits for the federation to
// finish. Returns the root server for post-run assertions.
func startTree(t *testing.T, spec models.Spec, cd []fl.ClientData, cfg algo.Config,
	global *models.SplitModel, shards, rounds int, seed int64, tel *telemetry.Set,
	edgeCfg func(shard int, base EdgeConfig) EdgeConfig, clientMayFail func(id int) bool,
	agg Aggregator, newTrainer func(c *algo.Client) Trainer) *TreeServer {
	t.Helper()
	if agg == nil {
		agg = algo.NewFedAvgAggregator(global, cfg)
	}
	if newTrainer == nil {
		newTrainer = func(c *algo.Client) Trainer { return algo.NewFedAvgTrainer(c, cfg) }
	}
	clients := len(cd)
	root, err := NewTreeServer(TreeServerConfig{
		Addr: "127.0.0.1:0", Shards: shards, Clients: clients, Rounds: rounds, Seed: seed,
		Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	globalInit := global.State(models.ScopeAll)
	rootErr := make(chan error, 1)
	go func() { rootErr <- root.Run(agg) }()

	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		lo, hi := algo.ShardRange(sh, clients, shards)
		ec := EdgeConfig{Addr: "127.0.0.1:0", Clients: hi - lo, RootAddr: root.Addr(), Shard: uint32(sh)}
		if edgeCfg != nil {
			ec = edgeCfg(sh, ec)
		}
		edge, err := NewEdge(ec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			// Churned edges exit with an error by design.
			if err := edge.Run(); err != nil && ec.Churn.P == 0 {
				t.Errorf("edge %d: %v", sh, err)
			}
		}(sh)
		for i := lo; i < hi; i++ {
			m := models.Build(spec, seed+int64(1000+i))
			m.SetState(models.ScopeAll, globalInit)
			tr := newTrainer(&algo.Client{ID: i, Train: cd[i].Train, Val: cd[i].Val, Model: m})
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				err := RunClient(addr, uint32(i), cd[i].Train.Len(), tr)
				if err != nil && (clientMayFail == nil || !clientMayFail(i)) {
					t.Errorf("client %d: %v", i, err)
				}
			}(i, edge.Addr())
		}
	}
	wg.Wait()
	if err := <-rootErr; err != nil {
		t.Fatalf("root: %v", err)
	}
	return root
}

// TestTreeCrossTransportEquivalence: a seeded sharded federation run
// in-process (fl.Sim with the sharded topology) and over a loopback TCP tree (TreeServer +
// Edges) must produce bitwise-identical global models, identical
// client-facing and relay byte counts, and byte-identical zero-time
// journals — the tree transport adds pooling, not semantics.
func TestTreeCrossTransportEquivalence(t *testing.T) {
	const (
		clients = 6
		shards  = 3
		rounds  = 2
		seed    = 41
	)
	spec, cd, _ := treeFixture(t, clients, seed)

	// In-process sharded simulation, full participation.
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, SampleRatio: 1, LocalEpochs: 1,
		BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed,
	}, cd)
	var simJournal bytes.Buffer
	simTel := telemetry.New(&simJournal)
	simTel.Journal.SetZeroTime(true)
	env.EnableTelemetry(simTel)
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, clients)
	for i, c := range env.Clients {
		trainers[i] = algo.NewFedAvgTrainer(c, cfg)
	}
	env.Topo = fl.Topology{Kind: fl.TopoSharded, Shards: shards}
	sim := fl.NewSim(env, algo.NewFedAvgAggregator(env.Global, cfg), trainers)
	all := make([]int, clients)
	for i := range all {
		all[i] = i
	}
	for r := 0; r < rounds; r++ {
		sim.Round(r, all)
	}

	// The identical federation over a TCP tree.
	var tcpJournal bytes.Buffer
	tcpTel := telemetry.New(&tcpJournal)
	tcpTel.Journal.SetZeroTime(true)
	global := models.Build(spec, seed)
	root := startTree(t, spec, cd, cfg, global, shards, rounds, seed, tcpTel, nil, nil, nil, nil)

	simState := env.Global.State(models.ScopeAll)
	tcpState := global.State(models.ScopeAll)
	if len(simState) != len(tcpState) {
		t.Fatalf("state length %d vs %d", len(simState), len(tcpState))
	}
	for j := range simState {
		if math.Float32bits(simState[j]) != math.Float32bits(tcpState[j]) {
			t.Fatalf("global state[%d] differs bitwise: %x (sim) vs %x (tree)",
				j, math.Float32bits(simState[j]), math.Float32bits(tcpState[j]))
		}
	}

	// Client-facing byte accounting matches the in-process meter, and
	// the tree's own hop is attributed to the relay counters.
	m := root.Meter()
	if env.Meter.Up() != m.Up() {
		t.Fatalf("client-facing uplink bytes differ: sim %d, tree %d", env.Meter.Up(), m.Up())
	}
	// The tree additionally broadcasts the final model (MsgDone) to every
	// client, which the in-process sim has no analogue for; per-round
	// downlink equality is already pinned by the journal comparison below.
	finalLen := int64(5 + 4*global.StateLen(models.ScopeAll))
	if m.Down() != env.Meter.Down()+int64(clients)*finalLen {
		t.Fatalf("client-facing downlink bytes differ: sim %d + final %d, tree %d",
			env.Meter.Down(), int64(clients)*finalLen, m.Down())
	}
	if env.Meter.RelayUp() != m.RelayUp() {
		t.Fatalf("relay uplink bytes differ: sim %d, tree %d", env.Meter.RelayUp(), m.RelayUp())
	}
	// The final model rides the relay hop once per edge.
	if m.RelayDown() != env.Meter.RelayDown()+int64(shards)*finalLen {
		t.Fatalf("relay downlink bytes differ: sim %d + final %d, tree %d",
			env.Meter.RelayDown(), int64(shards)*finalLen, m.RelayDown())
	}
	// Pooling trades frame count for a 12-byte entry header per upload:
	// relay uplink is the client uplink plus exactly those headers.
	if m.RelayUp() != m.Up()+int64(12*clients*rounds) {
		t.Fatalf("relay uplink %d != client uplink %d + entry headers", m.RelayUp(), m.Up())
	}

	if err := simTel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tcpTel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(simJournal.Bytes(), []byte(`"ev":"shard_push"`)) {
		t.Fatalf("sharded journal lacks shard_push events:\n%s", simJournal.Bytes())
	}
	if !bytes.Equal(simJournal.Bytes(), tcpJournal.Bytes()) {
		t.Fatalf("journals diverge across transports:\nsim:\n%s\ntree:\n%s",
			simJournal.Bytes(), tcpJournal.Bytes())
	}
}

// TestTreeEdgeChurn: an edge aggregator that crashes mid-federation
// degrades to per-shard drops — the root records shard_drop events and
// per-shard counters and keeps federating on the surviving shards
// instead of stalling.
func TestTreeEdgeChurn(t *testing.T) {
	const (
		clients = 4
		shards  = 2
		rounds  = 3
		seed    = 58
	)
	spec, cd, cfg := treeFixture(t, clients, seed)

	// Deterministic churn that spares round 0 and kills shard 1 at
	// round 1 — found by scanning seeds, then fixed forever.
	var churn netsim.Churn
	for s := int64(0); ; s++ {
		c := netsim.Churn{P: 0.5, Seed: s}
		if !c.Fails(0, 1) && c.Fails(1, 1) {
			churn = c
			break
		}
	}

	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	global := models.Build(spec, seed)
	lo, _ := algo.ShardRange(1, clients, shards)
	root := startTree(t, spec, cd, cfg, global, shards, rounds, seed, tel,
		func(shard int, base EdgeConfig) EdgeConfig {
			if shard == 1 {
				base.Churn = churn
				base.StragglerTimeout = 5 * time.Second
			}
			return base
		},
		func(id int) bool { return id >= lo }, // shard 1 clients die with their edge
		nil, nil,
	)

	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal.Bytes(), []byte(`"ev":"shard_drop"`)) {
		t.Fatalf("journal records no shard_drop events:\n%s", journal.Bytes())
	}
	// Shard 1 holds 2 clients and vanished for rounds 1 and 2.
	if got := root.ShardDrops(1); got != 4 {
		t.Fatalf("shard 1 drops = %d, want 4", got)
	}
	if got := root.ShardDrops(0); got != 0 {
		t.Fatalf("shard 0 drops = %d, want 0", got)
	}
	snap := tel.Reg.Snapshot()
	if snap.Counters["flnet.shard.1.drops"] != root.ShardDrops(1) {
		t.Fatalf("registry sees %d shard-1 drops, accessor %d",
			snap.Counters["flnet.shard.1.drops"], root.ShardDrops(1))
	}
	if root.Drops() != root.ShardDrops(0)+root.ShardDrops(1) {
		t.Fatalf("total drops %d != shard sum %d", root.Drops(), root.ShardDrops(0)+root.ShardDrops(1))
	}
}

// delayedTrainer wraps a trainer, sleeping a configured duration per
// round before training — a deterministic straggler.
type delayedTrainer struct {
	Trainer
	delays map[int]time.Duration
}

func (d *delayedTrainer) LocalUpdate(round int, payload []byte) []byte {
	if dl := d.delays[round]; dl > 0 {
		time.Sleep(dl)
	}
	return d.Trainer.LocalUpdate(round, payload)
}

// TestAsyncQuorumRounds: with ServerConfig.Quorum set, a round closes
// as soon as K sampled uploads arrive (quorum_reached), and a
// straggler's upload folds into the round in progress when it lands
// (late_upload + "flnet.late_uploads"), instead of stalling the
// federation or being discarded.
func TestAsyncQuorumRounds(t *testing.T) {
	const (
		clients = 3
		rounds  = 2
		seed    = 77
	)
	spec, cd, cfg := treeFixture(t, clients, seed)

	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: seed,
		Quorum: 2, StragglerTimeout: 30 * time.Second,
		Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := models.Build(spec, seed)
	globalInit := global.State(models.ScopeAll)
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.Run(algo.NewFedAvgAggregator(global, cfg)) }()

	// Client 2 straggles in round 0; clients 0 and 1 straggle in round
	// 1, so client 2's late round-0 upload demonstrably lands inside
	// round 1's collect window.
	delays := map[int]map[int]time.Duration{
		0: {1: 900 * time.Millisecond},
		1: {1: 900 * time.Millisecond},
		2: {0: 300 * time.Millisecond},
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		m := models.Build(spec, seed+int64(1000+i))
		m.SetState(models.ScopeAll, globalInit)
		tr := &delayedTrainer{
			Trainer: algo.NewFedAvgTrainer(&algo.Client{ID: i, Train: cd[i].Train, Val: cd[i].Val, Model: m}, cfg),
			delays:  delays[i],
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := RunClient(srv.Addr(), uint32(i), cd[i].Train.Len(), tr); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}

	if srv.LateUploads() < 1 {
		t.Fatalf("late uploads = %d, want >= 1", srv.LateUploads())
	}
	snap := tel.Reg.Snapshot()
	if snap.Counters["flnet.late_uploads"] != srv.LateUploads() {
		t.Fatalf("registry sees %d late uploads, accessor %d",
			snap.Counters["flnet.late_uploads"], srv.LateUploads())
	}
	j := journal.Bytes()
	if !bytes.Contains(j, []byte(`"ev":"quorum_reached"`)) {
		t.Fatalf("journal records no quorum_reached events:\n%s", j)
	}
	if !bytes.Contains(j, []byte(`"ev":"late_upload"`)) {
		t.Fatalf("journal records no late_upload events:\n%s", j)
	}
	if srv.Drops() != 0 {
		t.Fatalf("async stragglers must not count as drops, got %d", srv.Drops())
	}
	// The last round's second slow client lands after its quorum closed:
	// the server drains it before MsgDone instead of cutting it off.
	if srv.Pending() < 1 {
		t.Fatalf("pending uploads = %d, want >= 1", srv.Pending())
	}
	if snap.Counters["flnet.pending_uploads"] != srv.Pending() {
		t.Fatalf("registry sees %d pending uploads, accessor %d",
			snap.Counters["flnet.pending_uploads"], srv.Pending())
	}
}

// TestTreeSSFLShardedEquivalence: the SSFL protocol — mask agreement,
// one index-bearing sparse round, then values-only rounds — must be
// transport-invariant on the sharded tree too: in-process
// fl.Sim (sharded topology) and TreeServer+Edges produce bitwise-identical global
// models and byte-identical zero-time journals, including the
// mask_agreement event at the same position.
func TestTreeSSFLShardedEquivalence(t *testing.T) {
	const (
		clients = 6
		shards  = 3
		rounds  = 3 // agreement + index-bearing + values-only
		seed    = 47
		classes = 4
	)
	spec := models.Spec{Arch: "resnet20", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.25}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*40, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	cd := make([]fl.ClientData, clients)
	for i := range cd {
		cd[i].Train, cd[i].Val = ds.Subset(parts[i]).Split(0.8)
	}

	// In-process sharded simulation, full participation.
	env := fl.NewEnv(spec, fl.Config{
		NumClients: clients, SampleRatio: 1, LocalEpochs: 1,
		BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed,
	}, cd)
	var simJournal bytes.Buffer
	simTel := telemetry.New(&simJournal)
	simTel.Journal.SetZeroTime(true)
	env.EnableTelemetry(simTel)
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, clients)
	for i, c := range env.Clients {
		trainers[i] = algo.NewSSFLTrainer(c, algo.SSFLOptions{}, cfg)
	}
	env.Topo = fl.Topology{Kind: fl.TopoSharded, Shards: shards}
	sim := fl.NewSim(env, algo.NewSSFLAggregator(env.Global, algo.SSFLOptions{}, cfg), trainers)
	all := make([]int, clients)
	for i := range all {
		all[i] = i
	}
	for r := 0; r < rounds; r++ {
		sim.Round(r, all)
	}

	// The identical federation over a TCP tree.
	var tcpJournal bytes.Buffer
	tcpTel := telemetry.New(&tcpJournal)
	tcpTel.Journal.SetZeroTime(true)
	global := models.Build(spec, seed)
	root := startTree(t, spec, cd, cfg, global, shards, rounds, seed, tcpTel, nil, nil,
		algo.NewSSFLAggregator(global, algo.SSFLOptions{}, cfg),
		func(c *algo.Client) Trainer { return algo.NewSSFLTrainer(c, algo.SSFLOptions{}, cfg) },
	)

	simState := env.Global.State(models.ScopeAll)
	tcpState := global.State(models.ScopeAll)
	if len(simState) != len(tcpState) {
		t.Fatalf("state length %d vs %d", len(simState), len(tcpState))
	}
	for j := range simState {
		if math.Float32bits(simState[j]) != math.Float32bits(tcpState[j]) {
			t.Fatalf("global state[%d] differs bitwise: %x (sim) vs %x (tree)",
				j, math.Float32bits(simState[j]), math.Float32bits(tcpState[j]))
		}
	}

	// Client-facing uplink matches, and pooling's only overhead is the
	// 12-byte entry header per upload — sparse frames ride it unchanged.
	m := root.Meter()
	if env.Meter.Up() != m.Up() {
		t.Fatalf("client-facing uplink bytes differ: sim %d, tree %d", env.Meter.Up(), m.Up())
	}
	if m.RelayUp() != m.Up()+int64(12*clients*rounds) {
		t.Fatalf("relay uplink %d != client uplink %d + entry headers", m.RelayUp(), m.Up())
	}

	if err := simTel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tcpTel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(simJournal.Bytes(), []byte(`"ev":"mask_agreement"`)) {
		t.Fatalf("sharded journal lacks the mask_agreement event:\n%s", simJournal.Bytes())
	}
	if !bytes.Equal(simJournal.Bytes(), tcpJournal.Bytes()) {
		t.Fatalf("journals diverge across transports:\nsim:\n%s\ntree:\n%s",
			simJournal.Bytes(), tcpJournal.Bytes())
	}
}

// TestAsyncQuorumSSFL: SSFL under async quorum rounds. Round 0 closes
// on a quorum of score uploads; a straggler's late round-0 score frame
// lands inside a mask-static round, where it cannot decode as packed
// values — the aggregator must count it as a drop and keep federating,
// never panic or densify.
func TestAsyncQuorumSSFL(t *testing.T) {
	const (
		clients = 3
		rounds  = 3
		seed    = 83
		classes = 4
	)
	spec := models.Spec{Arch: "resnet20", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.25}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*40, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))
	cd := make([]fl.ClientData, clients)
	for i := range cd {
		cd[i].Train, cd[i].Val = ds.Subset(parts[i]).Split(0.8)
	}
	cfg := algo.Config{NumClients: clients, LocalEpochs: 1, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed}

	var journal bytes.Buffer
	tel := telemetry.New(&journal)
	tel.Journal.SetZeroTime(true)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: seed,
		Quorum: 2, StragglerTimeout: 30 * time.Second,
		Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := models.Build(spec, seed)
	globalInit := global.State(models.ScopeAll)
	agg := algo.NewSSFLAggregator(global, algo.SSFLOptions{}, cfg)
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.Run(agg) }()

	// Client 2's round-0 score upload straggles past the quorum; clients
	// 0 and 1 straggle in round 1 so the late score frame demonstrably
	// lands inside the mask-static collect window.
	delays := map[int]map[int]time.Duration{
		0: {1: 900 * time.Millisecond},
		1: {1: 900 * time.Millisecond},
		2: {0: 300 * time.Millisecond},
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		m := models.Build(spec, seed+int64(1000+i))
		m.SetState(models.ScopeAll, globalInit)
		tr := &delayedTrainer{
			Trainer: algo.NewSSFLTrainer(&algo.Client{ID: i, Train: cd[i].Train, Val: cd[i].Val, Model: m}, algo.SSFLOptions{}, cfg),
			delays:  delays[i],
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := RunClient(srv.Addr(), uint32(i), cd[i].Train.Len(), tr); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if err := tel.Journal.Flush(); err != nil {
		t.Fatal(err)
	}

	if srv.LateUploads() < 1 {
		t.Fatalf("late uploads = %d, want >= 1", srv.LateUploads())
	}
	// The late round-0 score frame cannot fold into a mask-static round.
	if agg.Dropped() < 1 {
		t.Fatalf("aggregator drops = %d, want >= 1 (late score frame at packed phase)", agg.Dropped())
	}
	j := journal.Bytes()
	if !bytes.Contains(j, []byte(`"ev":"quorum_reached"`)) {
		t.Fatalf("journal records no quorum_reached events:\n%s", j)
	}
	if !bytes.Contains(j, []byte(`"ev":"mask_agreement"`)) {
		t.Fatalf("journal records no mask_agreement event:\n%s", j)
	}
	// The global must still be finite and masked: SSFL quorum rounds
	// average whichever packed uploads arrive.
	for i, v := range global.State(models.ScopeAll) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("global state[%d] is not finite after quorum rounds: %v", i, v)
		}
	}
}
