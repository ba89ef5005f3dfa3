// Package fl is the federated-learning simulation framework: clients
// with private non-IID data, a central aggregation server, a round loop
// with client sampling and parallel local updates, and the four baseline
// algorithms SPATL is compared against — FedAvg, FedProx, FedNova and
// SCAFFOLD — implemented to match the Non-IID benchmark the paper uses.
//
// Communication is routed through internal/comm so every reported byte
// was actually serialized. The headline "communication cost" follows the
// paper's accounting: uplink (client → server) volume per round.
package fl

import (
	"fmt"
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// Config holds the federated-learning hyperparameters shared by all
// algorithms. The defaults follow §V-A of the paper where applicable
// (10 local update epochs, momentum SGD).
type Config struct {
	NumClients  int
	SampleRatio float64 // fraction of clients participating per round
	LocalEpochs int     // local update epochs per round (paper: 10)
	BatchSize   int
	LR          float64
	// LRSchedule, when set, overrides LR per communication round
	// (nn.ConstantLR, StepLR, CosineLR, WarmupLR...).
	LRSchedule  nn.Schedule
	Momentum    float64
	WeightDecay float64
	ProxMu      float64 // FedProx proximal coefficient
	GradClip    float64 // global-norm gradient clip; 0 disables
	// DropRate is the probability that a selected client crashes after
	// downloading and never uploads its round result — straggler/failure
	// injection for robustness testing. 0 disables.
	DropRate float64
	// HalfPrecision ships all payloads as IEEE 754 binary16, halving
	// wire volume (an extension beyond the paper; composes with salient
	// selection).
	HalfPrecision bool
	Seed          int64
}

// WithDefaults fills zero fields with the standard settings.
func (c Config) WithDefaults() Config {
	if c.NumClients == 0 {
		c.NumClients = 10
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = 1
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// Client is one edge device; it aliases the transport-agnostic
// algo.Client so simulation code and algorithm cores share the type.
type Client = algo.Client

// In-process topology kinds (Topology.Kind).
const (
	TopoFlat    = "flat"    // flat collection, one hop
	TopoSharded = "sharded" // two-level collection tree
	TopoQuorum  = "quorum"  // deterministic async quorum rounds
)

// Topology selects how the in-process Sim delivers a round and when it
// closes it: flat collection, the sharded collection tree, or
// deterministic async-quorum rounds. The zero value is flat — every
// pre-existing caller keeps its behavior.
type Topology struct {
	Kind string // "" or TopoFlat | TopoSharded | TopoQuorum

	// Shards is the collection-tree width (TopoSharded; below 1 means 1).
	Shards int
	// OnTimeFrac is the fraction of a round's uploads that beat the
	// quorum close (TopoQuorum); the rest fold into the next round as
	// late uploads. 0 or >=1 makes every upload on time.
	OnTimeFrac float64
}

// Env is the shared simulation environment: the server's global model,
// all clients, the communication meter and the experiment RNG.
type Env struct {
	Cfg     Config
	Spec    models.Spec
	Clients []*Client
	Global  *models.SplitModel
	Meter   *comm.Meter
	Rng     *rand.Rand

	// Topo selects the Sim's delivery and close rule. The zero value is
	// flat collection.
	Topo Topology

	// Tel, when set via EnableTelemetry, receives spans, metrics and
	// journal events from the round loop and every wired algorithm core.
	// Nil keeps the whole stack telemetry-free.
	Tel *telemetry.Set
}

// EnableTelemetry installs a telemetry set on the environment: the
// communication meter's counters are exposed through the registry under
// "comm.*", the tensor worker-pool gauges under "tensor.pool.*", and
// every Sim built afterwards wires its algorithm cores into the set.
func (e *Env) EnableTelemetry(s *telemetry.Set) {
	e.Tel = s
	if s == nil || s.Reg == nil {
		return
	}
	e.Meter.Bind(s.Reg, "comm")
	tensor.BindPoolMetrics(s.Reg)
}

// ClientData is the per-client dataset pair handed to NewEnv.
type ClientData struct {
	Train, Val *data.Dataset
}

// NewEnv builds a simulation environment: the global model from
// cfg.Seed, and one client model per dataset pair (initialized to the
// same weights as the global model).
func NewEnv(spec models.Spec, cfg Config, cd []ClientData) *Env {
	cfg = cfg.WithDefaults()
	if len(cd) != cfg.NumClients {
		panic(fmt.Sprintf("fl: %d client datasets for %d clients", len(cd), cfg.NumClients))
	}
	env := &Env{
		Cfg:    cfg,
		Spec:   spec,
		Global: models.Build(spec, cfg.Seed),
		Meter:  &comm.Meter{},
		Rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	init := env.Global.State(models.ScopeAll)
	for i, d := range cd {
		m := models.Build(spec, cfg.Seed+int64(1000+i))
		m.SetState(models.ScopeAll, init)
		env.Clients = append(env.Clients, &Client{ID: i, Train: d.Train, Val: d.Val, Model: m})
	}
	return env
}

// SampleClients draws the participating client set for a round: a
// uniform sample without replacement of ceil(ratio·N) clients, at least
// one.
func (e *Env) SampleClients() []int {
	n := int(float64(e.Cfg.NumClients)*e.Cfg.SampleRatio + 0.5)
	if n < 1 {
		n = 1
	}
	if n > e.Cfg.NumClients {
		n = e.Cfg.NumClients
	}
	perm := e.Rng.Perm(e.Cfg.NumClients)
	sel := append([]int(nil), perm[:n]...)
	// Sort for deterministic iteration order downstream.
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	return sel
}

// EncodeDense serializes a flat vector at the configured wire precision.
func (e *Env) EncodeDense(v []float32) []byte {
	return e.EncodeDenseInto(nil, v)
}

// EncodeDenseInto is EncodeDense writing into dst (reused when its
// capacity suffices), so round loops can serialize into pooled buffers.
func (e *Env) EncodeDenseInto(dst []byte, v []float32) []byte {
	if e.Cfg.HalfPrecision {
		return comm.EncodeDenseF16Into(dst, v)
	}
	return comm.EncodeDenseInto(dst, v)
}

// DensePayloadLen returns the encoded size of an n-element dense payload
// at the configured wire precision — for pre-sizing pooled buffers.
func (e *Env) DensePayloadLen(n int) int {
	if e.Cfg.HalfPrecision {
		return comm.DenseF16Len(n)
	}
	return comm.DenseLen(n)
}

// EncodeSparse serializes a sparse payload at the configured precision.
func (e *Env) EncodeSparse(s *comm.Sparse) []byte {
	return e.EncodeSparseInto(nil, s)
}

// EncodeSparseInto is EncodeSparse writing into dst (reused when its
// capacity suffices).
func (e *Env) EncodeSparseInto(dst []byte, s *comm.Sparse) []byte {
	if e.Cfg.HalfPrecision {
		return comm.EncodeSparseF16Into(dst, s)
	}
	return comm.EncodeSparseInto(dst, s)
}

// SparsePayloadLen returns the encoded size of s at the configured wire
// precision — for pre-sizing pooled buffers.
func (e *Env) SparsePayloadLen(s *comm.Sparse) int {
	if e.Cfg.HalfPrecision {
		return s.EncodedLenF16()
	}
	return s.EncodedLen()
}

// LRAt returns the learning rate for a communication round, honouring
// the schedule when one is configured.
func (e *Env) LRAt(round int) float64 {
	if e.Cfg.LRSchedule != nil {
		return e.Cfg.LRSchedule.LRAt(round)
	}
	return e.Cfg.LR
}

// ClientSeed derives a deterministic per-(round, client) seed for local
// training so runs are reproducible regardless of scheduling order. It
// delegates to algo.ClientSeed — the same derivation every transport
// uses.
func (e *Env) ClientSeed(round, clientID int) int64 {
	return algo.ClientSeed(e.Cfg.Seed, round, clientID)
}

// AlgoConfig projects the simulation config onto the hyperparameters an
// algorithm core needs (algo.Config drops the transport-owned knobs:
// sampling ratio and drop injection).
func (e *Env) AlgoConfig() algo.Config {
	return algo.Config{
		NumClients:    e.Cfg.NumClients,
		LocalEpochs:   e.Cfg.LocalEpochs,
		BatchSize:     e.Cfg.BatchSize,
		LR:            e.Cfg.LR,
		LRSchedule:    e.Cfg.LRSchedule,
		Momentum:      e.Cfg.Momentum,
		WeightDecay:   e.Cfg.WeightDecay,
		ProxMu:        e.Cfg.ProxMu,
		GradClip:      e.Cfg.GradClip,
		HalfPrecision: e.Cfg.HalfPrecision,
		Seed:          e.Cfg.Seed,
	}
}

// ClientFailed reports whether failure injection drops this client's
// upload this round. Deterministic in (seed, round, client) so runs are
// reproducible.
func (e *Env) ClientFailed(round, clientID int) bool {
	if e.Cfg.DropRate <= 0 {
		return false
	}
	rng := rand.New(rand.NewSource(e.ClientSeed(round, clientID) ^ 0x5ca1ab1e))
	return rng.Float64() < e.Cfg.DropRate
}

// TrainSizes returns each selected client's training-set size and the
// total, used for data-weighted aggregation.
func (e *Env) TrainSizes(selected []int) ([]float64, float64) {
	ws := make([]float64, len(selected))
	var total float64
	for i, ci := range selected {
		ws[i] = float64(e.Clients[ci].Train.Len())
		total += ws[i]
	}
	return ws, total
}

// Algorithm is one federated-learning method. Round executes a full
// communication round over the selected clients, mutating the
// environment (global model, client state, communication meter).
type Algorithm interface {
	Name() string
	// Setup is called once before the first round.
	Setup(env *Env)
	// Round runs one communication round.
	Round(env *Env, round int, selected []int)
	// EvalModel returns the model that client c would deploy — the
	// global model for the uniform-model baselines, the personalized
	// encoder+predictor composition for SPATL.
	EvalModel(env *Env, c *Client) *models.SplitModel
}
