package hetero

import (
	"fmt"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// heteroUpload is one client's decoded round contribution: the packed
// slice values (the ranges are validated against the server's own
// SliceSpec and then discarded — folding uses the canonical copy).
type heteroUpload struct {
	client  uint32
	cluster uint8
	vals    []float32
	w       float64
}

// Aggregator is the server side of a heterogeneous federation: K
// full-width cluster models, per-cluster float64 accumulators with
// per-index participation weights, fed by the streaming fold engine.
// Every upload folds into exactly its cluster's accumulator over
// exactly its width slice; FinishRound finalizes each touched cluster
// index-wise (÷ the weight of the clients that covered that index) and
// runs the periodic cluster reassignment.
//
// Per-index participation weighting preserves determinism because it
// adds no new reduction order: the weight sum at index j accumulates in
// the same canonical fold order as the value sum at index j, and the
// finalize is one division per index. With one cluster and full-width
// slices both sums collapse to FedAvg's Σwx and Σw — the degenerate
// federation is bitwise FedAvg.
type Aggregator struct {
	algo.Telemetered
	algo.Stream[heteroUpload]
	Global *models.SplitModel

	opts     Options
	cfg      algo.Config
	stateLen int
	cl       *Clusterer
	slices   map[uint16]*SliceSpec
	milli    []uint16 // per-client width milli

	modelsFlat []float32   // K×stateLen cluster models, cluster-major
	acc        [][]float64 // per-cluster Σ wᵢ·xᵢ over covered indices
	wsum       [][]float64 // per-cluster Σ wᵢ per covered index
	folded     []int       // uploads folded per cluster this round
	curRound   int
	bcast      []byte            // reusable broadcast body
	upd        comm.HeteroUpdate // decode scratch (values handed off per upload)

	dropped telemetry.Counter
	upBytes map[uint16]*telemetry.Counter // per-width uplink payload bytes
	sizes   []telemetry.Gauge             // per-cluster member counts
}

// NewAggregator wires the aggregator around the global model.
// cfg.NumClients is the federation size (required — the assignment
// table is broadcast by client ID).
func NewAggregator(global *models.SplitModel, opts Options, cfg algo.Config) *Aggregator {
	opts = opts.WithDefaults()
	cfg = cfg.WithDefaults()
	n := cfg.NumClients
	if n <= 0 {
		panic("hetero: NumClients must be set")
	}
	if opts.Clusters < 1 || opts.Clusters > 255 {
		panic(fmt.Sprintf("hetero: %d clusters, want 1..255", opts.Clusters))
	}
	a := &Aggregator{
		Global:   global,
		opts:     opts,
		cfg:      cfg,
		stateLen: global.StateLen(models.ScopeAll),
		cl:       NewClusterer(global, opts, n, cfg.Seed),
		slices:   make(map[uint16]*SliceSpec),
		milli:    make([]uint16, n),
		upBytes:  make(map[uint16]*telemetry.Counter),
		sizes:    make([]telemetry.Gauge, opts.Clusters),
	}
	for _, w := range opts.Widths {
		m := WidthMilli(w)
		if _, ok := a.slices[m]; !ok {
			a.slices[m] = NewSliceSpec(global, w)
			a.upBytes[m] = &telemetry.Counter{}
		}
	}
	for i := 0; i < n; i++ {
		a.milli[i] = WidthMilli(opts.WidthFor(i))
	}
	// Every cluster model starts as the shared initialization.
	init := global.State(models.ScopeAll)
	a.modelsFlat = make([]float32, opts.Clusters*a.stateLen)
	a.acc = make([][]float64, opts.Clusters)
	a.wsum = make([][]float64, opts.Clusters)
	a.folded = make([]int, opts.Clusters)
	for k := 0; k < opts.Clusters; k++ {
		copy(a.Model(k), init)
		a.acc[k] = make([]float64, a.stateLen)
		a.wsum[k] = make([]float64, a.stateLen)
	}
	a.Init(a.fold, func(u heteroUpload) { comm.PutF32(u.vals) })
	return a
}

// Model returns cluster k's full-width flat state (live view).
func (a *Aggregator) Model(k int) []float32 {
	return a.modelsFlat[k*a.stateLen : (k+1)*a.stateLen]
}

// ClientModel returns the cluster model client id currently trains
// against.
func (a *Aggregator) ClientModel(id int) []float32 {
	return a.Model(int(a.cl.Assign[id]))
}

// InstallClientModel writes client id's cluster model into m — the eval
// path: a client deploys its cluster's model, not a single global one.
func (a *Aggregator) InstallClientModel(id int, m *models.SplitModel) {
	m.SetState(models.ScopeAll, a.ClientModel(id))
}

// Assignments returns the live per-client cluster assignment.
func (a *Aggregator) Assignments() []uint8 { return a.cl.Assign }

// Slice returns the server's SliceSpec for a width (by milli key).
func (a *Aggregator) Slice(milli uint16) *SliceSpec { return a.slices[milli] }

// Dropped reports how many uploads failed validation (malformed frame,
// unknown width, wrong cluster, or a slice spec that does not match the
// server's) and were discarded.
func (a *Aggregator) Dropped() int64 { return a.dropped.Value() }

// UpBytes reports the accepted uplink payload bytes for one width pool
// entry (by milli key).
func (a *Aggregator) UpBytes(milli uint16) int64 {
	if c, ok := a.upBytes[milli]; ok {
		return c.Value()
	}
	return 0
}

// SetTelemetry implements algo.Wirer, exposing the drop counter, the
// streaming gauges, the per-width uplink byte counters
// ("hetero.up_bytes.w<milli>") and the per-cluster size gauges
// ("hetero.cluster_size.<k>").
func (a *Aggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s == nil || s.Reg == nil {
		return
	}
	s.Reg.Attach("algo.uploads_dropped", &a.dropped)
	a.WireStream(s.Reg)
	for m, c := range a.upBytes {
		s.Reg.Attach(fmt.Sprintf("hetero.up_bytes.w%d", m), c)
	}
	for k, n := range a.cl.Sizes() {
		s.Reg.AttachGauge(fmt.Sprintf("hetero.cluster_size.%d", k), &a.sizes[k])
		a.sizes[k].Set(int64(n))
	}
}

// Broadcast implements algo.Aggregator: the assignment table plus every
// cluster model in one frame.
func (a *Aggregator) Broadcast(round int) []byte {
	defer a.RoundSpan(round, "agg.broadcast").End()
	h := comm.HeteroBcast{
		Clusters: a.opts.Clusters, Assign: a.cl.Assign,
		StateLen: a.stateLen, Models: a.modelsFlat,
	}
	a.bcast = comm.EncodeHeteroBcastInto(a.bcast, &h)
	a.ObserveSize("payload.down", len(a.bcast))
	return a.bcast
}

// decodeUpload decodes and validates one upload; the shared front half
// of Collect and CollectLate. The frame's values move into a pooled
// buffer owned by the returned upload; its ranges are checked against
// the server's own SliceSpec and discarded.
func (a *Aggregator) decodeUpload(client uint32, trainSize int, payload []byte) (heteroUpload, bool) {
	a.ObserveSize("payload.up", len(payload))
	if int(client) >= len(a.milli) {
		a.dropped.Add(1)
		return heteroUpload{}, false
	}
	milli := a.milli[client]
	sl := a.slices[milli]
	a.upd.Values = comm.GetF32(sl.Count())
	if err := comm.DecodeHeteroUpdateInto(&a.upd, payload); err != nil ||
		a.upd.WidthMilli != milli ||
		a.upd.Cluster != a.cl.Assign[client] ||
		!sl.RangesEqual(a.upd.Ranges) {
		a.dropped.Add(1)
		comm.PutF32(a.upd.Values)
		a.upd.Values = nil
		return heteroUpload{}, false
	}
	u := heteroUpload{client: client, cluster: a.upd.Cluster, vals: a.upd.Values, w: float64(trainSize)}
	a.upd.Values = nil
	if c, ok := a.upBytes[milli]; ok {
		c.Add(int64(len(payload)))
	}
	return u, true
}

// fold merges one upload into its cluster's accumulators and feeds the
// assigner's signature sketch. Folds run only on the collect goroutine
// in canonical order; per index the accumulation chain is fixed, so the
// fold is bitwise reproducible at any GOMAXPROCS.
func (a *Aggregator) fold(u heteroUpload) {
	defer a.RoundSpan(a.curRound, "agg.fold").End()
	k := int(u.cluster)
	if a.folded[k] == 0 {
		for j := range a.acc[k] {
			a.acc[k][j] = 0
			a.wsum[k][j] = 0
		}
	}
	a.folded[k]++
	sl := a.slices[a.milli[u.client]]
	a.cl.Observe(u.client, u.vals, sl.Ranges, a.Model(k))
	foldRanges(a.acc[k], a.wsum[k], u.vals, sl.Ranges, u.w)
}

// Collect implements algo.Aggregator: decode, validate, and hand the
// upload to the streaming engine.
func (a *Aggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.RoundSpan(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(client, trainSize, payload); ok {
		a.Ingest(client, u)
	}
}

// CollectLate implements algo.Aggregator: a carried-over
// straggler upload folds at its delivery position, outside the cursor.
func (a *Aggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.RoundSpan(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(client, trainSize, payload); ok {
		a.FoldNow(u)
	}
}

// FinishRound implements algo.Aggregator: drain the stream, finalize
// every touched cluster index-wise (indices nobody covered keep the
// cluster model's previous value), mirror cluster 0 into the Global
// model, and run the periodic reassignment.
func (a *Aggregator) FinishRound(round int) {
	defer a.RoundSpan(round, "agg.reduce").End()
	a.curRound = round
	a.FinishStream()
	for k := 0; k < a.opts.Clusters; k++ {
		if a.folded[k] == 0 {
			continue
		}
		mk := a.Model(k)
		acc, ws := a.acc[k], a.wsum[k]
		tensor.Parallel(a.stateLen, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if ws[j] != 0 {
					mk[j] = float32(acc[j] / ws[j])
				}
			}
		})
		a.folded[k] = 0
	}
	// Global mirrors cluster 0 so scope-agnostic tooling (checkpoints,
	// eval fallbacks) sees a coherent model; in the degenerate single
	// cluster case this is exactly FedAvg's SetState.
	a.Global.SetState(models.ScopeAll, a.Model(0))
	if a.opts.ReassignEvery > 0 && (round+1)%a.opts.ReassignEvery == 0 {
		sizes := a.cl.Reassign()
		tel := a.Telemetry()
		for k, n := range sizes {
			a.sizes[k].Set(int64(n))
			if tel != nil {
				tel.Emit(telemetry.ClusterAssign(round, k, n))
			}
		}
	}
}

// Final implements algo.Aggregator: the end-of-federation broadcast,
// same frame as a round broadcast (each client installs its cluster's
// model).
func (a *Aggregator) Final() []byte {
	h := comm.HeteroBcast{
		Clusters: a.opts.Clusters, Assign: a.cl.Assign,
		StateLen: a.stateLen, Models: a.modelsFlat,
	}
	return comm.EncodeHeteroBcast(&h)
}
