package algo

import (
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// FedAvgAggregator is the server side of FedAvg (McMahan et al.):
// data-size-weighted model averaging over dense checkpoint payloads,
// folded on arrival through the streaming engine — each upload adds its
// unscaled wᵢ·xᵢ term into the float64 accumulator and releases its
// buffers; FinishRound finalizes with ÷Σw. FedProx shares it — the
// proximal term is purely client-side.
type FedAvgAggregator struct {
	Telemetered
	stream[fedavgUpload]
	Global *models.SplitModel

	cfg      Config
	acc      []float64 // unscaled Σ wᵢ·xᵢ, folded on arrival
	sumW     float64
	folded   int
	curRound int
	bcast    []byte    // reusable broadcast body
	avgBuf   []float32 // reusable aggregate, recycled across rounds
	dropped  telemetry.Counter
}

// fedavgUpload is one client's decoded round contribution.
type fedavgUpload struct {
	state []float32
	w     float64
}

// NewFedAvgAggregator wires the aggregator around the global model.
func NewFedAvgAggregator(global *models.SplitModel, cfg Config) *FedAvgAggregator {
	a := &FedAvgAggregator{Global: global, cfg: cfg.WithDefaults()}
	a.foldFn = a.fold
	a.releaseFn = func(u fedavgUpload) { comm.PutF32(u.state) }
	return a
}

// Dropped reports how many malformed uploads have been discarded since
// construction; surfaced so operators can tell a skewed aggregate from a
// healthy one.
func (a *FedAvgAggregator) Dropped() int64 { return a.dropped.Value() }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// through the registry — the same counter Dropped reads.
func (a *FedAvgAggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &a.dropped)
		a.wireStream(s.Reg)
	}
}

// Broadcast implements Aggregator.
func (a *FedAvgAggregator) Broadcast(round int) []byte {
	defer a.span(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
	a.bcast = a.cfg.encodeDenseInto(a.bcast, state)
	comm.PutF32(state)
	a.size("payload.down", len(a.bcast))
	return a.bcast
}

// decodeUpload decodes one dense upload into a pooled vector; the
// shared front half of Collect, CollectLate and CollectBatch.
func (a *FedAvgAggregator) decodeUpload(trainSize int, payload []byte) (fedavgUpload, bool) {
	a.size("payload.up", len(payload))
	n := a.Global.StateLen(models.ScopeAll)
	state, err := comm.DecodeDenseAnyInto(comm.GetF32(n), payload)
	if err != nil || len(state) != n {
		a.dropped.Add(1)
		comm.PutF32(state)
		return fedavgUpload{}, false
	}
	return fedavgUpload{state: state, w: float64(trainSize)}, true
}

// fold adds one upload's unscaled wᵢ·xᵢ term into the float64
// accumulator. Folds run only on the collect goroutine, in the order
// the streaming cursor dictates; per index the chunked accumulation is
// independent, so the chain is bitwise identical at any GOMAXPROCS.
func (a *FedAvgAggregator) fold(u fedavgUpload) {
	defer a.span(a.curRound, "agg.fold").End()
	n := len(u.state)
	if a.folded == 0 {
		if cap(a.acc) < n {
			a.acc = make([]float64, n)
		}
		a.acc = a.acc[:n]
		for j := range a.acc {
			a.acc[j] = 0
		}
		a.sumW = 0
	}
	a.folded++
	a.sumW += u.w
	tensor.Parallel(n, func(lo, hi int) {
		tensor.VecAccumScaled(a.acc[lo:hi], u.state[lo:hi], u.w)
	})
}

// Collect implements Aggregator: decode into a pooled vector and hand
// it to the streaming engine — folded immediately at the cursor, staged
// briefly when it arrives early. The buffer is released right after the
// fold, not at FinishRound.
func (a *FedAvgAggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.ingest(client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor.
func (a *FedAvgAggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.foldNow(u)
	}
}

// CollectBatch implements BatchCollector: decode a whole batch of
// uploads concurrently, then ingest in upload order — equivalent to
// sequential Collect calls, with the per-upload decode parallelized.
func (a *FedAvgAggregator) CollectBatch(round int, ups []Upload) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	type entry struct {
		client uint32
		u      fedavgUpload
	}
	entries := decodeBatch(ups, func(up Upload) (entry, bool) {
		u, ok := a.decodeUpload(up.TrainSize, up.Payload)
		return entry{client: up.Client, u: u}, ok
	})
	for _, e := range entries {
		a.ingest(e.client, e.u)
	}
}

// FinishRound implements Aggregator: drain anything still staged, then
// finalize the accumulated Σwᵢxᵢ with a single ÷Σw per index — bitwise
// identical to StreamFoldRefFedAvg at any GOMAXPROCS.
func (a *FedAvgAggregator) FinishRound(round int) {
	defer a.span(round, "agg.reduce").End()
	a.curRound = round
	a.finishStream()
	if a.folded == 0 || a.sumW == 0 {
		a.folded = 0
		return
	}
	n := len(a.acc)
	if cap(a.avgBuf) < n {
		a.avgBuf = make([]float32, n)
	}
	avg := a.avgBuf[:n]
	tensor.Parallel(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			avg[j] = float32(a.acc[j] / a.sumW)
		}
	})
	a.avgBuf = avg
	a.Global.SetState(models.ScopeAll, avg)
	a.folded = 0
	a.sumW = 0
}

// Final implements Aggregator.
func (a *FedAvgAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// FedAvgTrainer is the client side of FedAvg and (with prox set)
// FedProx: install the broadcast model, run local SGD on the private
// shard, upload the trained weights. The upload is a single dense
// payload, so FedProx's per-round traffic equals FedAvg's exactly.
type FedAvgTrainer struct {
	Telemetered
	Client *Client

	// FinalModel is populated by Finish.
	FinalModel []float32

	cfg   Config
	prox  bool
	upBuf []byte // reusable upload body
}

// NewFedAvgTrainer wires a trainer around a client.
func NewFedAvgTrainer(c *Client, cfg Config) *FedAvgTrainer {
	return &FedAvgTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// NewFedProxTrainer is NewFedAvgTrainer plus the proximal term μ(w −
// w_global) on every local gradient (Li et al.).
func NewFedProxTrainer(c *Client, cfg Config) *FedAvgTrainer {
	t := NewFedAvgTrainer(c, cfg)
	t.prox = true
	if t.cfg.ProxMu == 0 {
		t.cfg.ProxMu = 0.01
	}
	return t
}

// LocalUpdate implements Trainer.
func (t *FedAvgTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.span(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	n := m.StateLen(models.ScopeAll)
	state, err := comm.DecodeDenseAnyInto(comm.GetF32(n), payload)
	if err != nil || len(state) != n {
		comm.PutF32(state)
		return nil
	}
	m.SetState(models.ScopeAll, state)
	comm.PutF32(state)
	opts := t.cfg.localOpts(m.Params(), round)
	if t.prox {
		opts.Hook = addProx(t.cfg.ProxMu, nn.FlattenParams(m.Params()))
	}
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, opts, rng)
	train.End()
	local := m.StateInto(models.ScopeAll, comm.GetF32(n))
	t.upBuf = t.cfg.encodeDenseInto(t.upBuf, local)
	comm.PutF32(local)
	return t.upBuf
}

// Finish implements Trainer.
func (t *FedAvgTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
		t.FinalModel = state
	}
}
