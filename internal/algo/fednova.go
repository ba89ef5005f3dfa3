package algo

import (
	"encoding/binary"
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// FedNovaAggregator is the server side of FedNova (Wang et al.):
// normalized updates dᵢ = (x_g − x_i)/τᵢ weighted by data size, with
// τ_eff = Σpᵢτᵢ rescaling, plus the momentum variant — clients ship
// their momentum buffers, the server averages and redistributes them
// (the ≈2× per-round uplink the SPATL paper reports for FedNova).
type FedNovaAggregator struct {
	Telemetered
	stream[fednovaUpload]
	Global *models.SplitModel

	cfg      Config
	velocity []float32 // server-averaged momentum over trainable params
	bcast    []byte
	accD     []float64 // unscaled Σ wᵢ·dᵢ, folded on arrival
	accV     []float64 // unscaled Σ wᵢ·vᵢ
	sumW     float64
	sumWTau  float64 // Σ wᵢ·τᵢ (τ_eff numerator)
	folded   int
	curRound int
	dropped  telemetry.Counter
}

// fednovaUpload is one client's decoded round contribution.
type fednovaUpload struct {
	d, v []float32
	tau  float64 // local step count τᵢ
	w    float64 // data-size weight
}

// NewFedNovaAggregator wires the aggregator around the global model.
func NewFedNovaAggregator(global *models.SplitModel, cfg Config) *FedNovaAggregator {
	a := &FedNovaAggregator{
		Global:   global,
		cfg:      cfg.WithDefaults(),
		velocity: make([]float32, nn.ParamCount(global.Params())),
	}
	a.foldFn = a.fold
	a.releaseFn = func(u fednovaUpload) {
		comm.PutF32(u.d)
		comm.PutF32(u.v)
	}
	return a
}

// Velocity exposes the server-averaged momentum (read-only use).
func (a *FedNovaAggregator) Velocity() []float32 { return a.velocity }

// Dropped reports how many malformed uploads have been discarded.
func (a *FedNovaAggregator) Dropped() int64 { return a.dropped.Value() }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// through the registry — the same counter Dropped reads.
func (a *FedNovaAggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &a.dropped)
		a.wireStream(s.Reg)
	}
}

// Broadcast implements Aggregator: joined dense payloads for the model
// state and the server momentum.
func (a *FedNovaAggregator) Broadcast(round int) []byte {
	defer a.span(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
	encS := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(n)), state)
	encV := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(len(a.velocity))), a.velocity)
	a.bcast = comm.JoinPayloadsInto(a.bcast, encS, encV)
	comm.PutBuf(encV)
	comm.PutBuf(encS)
	comm.PutF32(state)
	a.size("payload.down", len(a.bcast))
	return a.bcast
}

// decodeUpload decodes one three-part upload — normalized update d,
// momentum buffer, and the local step count τ as 4-byte little-endian —
// the shared front half of Collect, CollectLate and CollectBatch.
func (a *FedNovaAggregator) decodeUpload(trainSize int, payload []byte) (fednovaUpload, bool) {
	a.size("payload.up", len(payload))
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 3 || len(parts[2]) != 4 {
		a.dropped.Add(1)
		return fednovaUpload{}, false
	}
	steps := binary.LittleEndian.Uint32(parts[2])
	nState := a.Global.StateLen(models.ScopeAll)
	d, err1 := comm.DecodeDenseAnyInto(comm.GetF32(nState), parts[0])
	v, err2 := comm.DecodeDenseAnyInto(comm.GetF32(len(a.velocity)), parts[1])
	if err1 != nil || err2 != nil || len(d) != nState || len(v) != len(a.velocity) || steps == 0 {
		a.dropped.Add(1)
		comm.PutF32(d)
		comm.PutF32(v)
		return fednovaUpload{}, false
	}
	return fednovaUpload{d: d, v: v, tau: float64(steps), w: float64(trainSize)}, true
}

// fold adds one upload's unscaled wᵢ·dᵢ and wᵢ·vᵢ terms into the
// float64 accumulators and tallies the τ_eff numerator.
func (a *FedNovaAggregator) fold(u fednovaUpload) {
	defer a.span(a.curRound, "agg.fold").End()
	if a.folded == 0 {
		if cap(a.accD) < len(u.d) {
			a.accD = make([]float64, len(u.d))
		}
		a.accD = a.accD[:len(u.d)]
		for j := range a.accD {
			a.accD[j] = 0
		}
		if cap(a.accV) < len(u.v) {
			a.accV = make([]float64, len(u.v))
		}
		a.accV = a.accV[:len(u.v)]
		for j := range a.accV {
			a.accV[j] = 0
		}
		a.sumW, a.sumWTau = 0, 0
	}
	a.folded++
	a.sumW += u.w
	a.sumWTau += u.w * u.tau
	tensor.Parallel(len(u.d), func(lo, hi int) {
		tensor.VecAccumScaled(a.accD[lo:hi], u.d[lo:hi], u.w)
	})
	tensor.Parallel(len(u.v), func(lo, hi int) {
		tensor.VecAccumScaled(a.accV[lo:hi], u.v[lo:hi], u.w)
	})
}

// Collect implements Aggregator: decode, then fold through the
// streaming cursor; buffers release right after the fold.
func (a *FedNovaAggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.ingest(client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor.
func (a *FedNovaAggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.foldNow(u)
	}
}

// CollectBatch implements BatchCollector: the Collect decode run
// concurrently over a whole batch, then ingested in upload order.
func (a *FedNovaAggregator) CollectBatch(round int, ups []Upload) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	type entry struct {
		client uint32
		u      fednovaUpload
	}
	entries := decodeBatch(ups, func(up Upload) (entry, bool) {
		u, ok := a.decodeUpload(up.TrainSize, up.Payload)
		return entry{client: up.Client, u: u}, ok
	})
	for _, e := range entries {
		a.ingest(e.client, e.u)
	}
}

// FinishRound implements Aggregator: τ_eff = Σwᵢτᵢ/Σwᵢ ; x_g ← x_g −
// τ_eff·(Σwᵢdᵢ/Σwᵢ) ; velocity = Σwᵢvᵢ/Σwᵢ — the finalize half of the
// two-phase reduce, bitwise identical to StreamFoldRefFedNova at any
// GOMAXPROCS.
func (a *FedNovaAggregator) FinishRound(round int) {
	defer a.span(round, "agg.reduce").End()
	a.curRound = round
	a.finishStream()
	if a.folded == 0 || a.sumW == 0 {
		a.folded = 0
		return
	}
	tauEff := a.sumWTau / a.sumW
	nState := len(a.accD)
	globalState := a.Global.StateInto(models.ScopeAll, comm.GetF32(nState))
	newState := comm.GetF32(nState)
	tensor.Parallel(nState, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			newState[j] = float32(float64(globalState[j]) - tauEff*(a.accD[j]/a.sumW))
		}
	})
	a.Global.SetState(models.ScopeAll, newState)
	comm.PutF32(newState)
	comm.PutF32(globalState)
	tensor.Parallel(len(a.velocity), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			a.velocity[j] = float32(a.accV[j] / a.sumW)
		}
	})
	a.folded = 0
	a.sumW, a.sumWTau = 0, 0
}

// Final implements Aggregator.
func (a *FedNovaAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// FedNovaTrainer is the client side: warm-start momentum from the
// broadcast buffer, run local SGD, upload the τ-normalized update, the
// final momentum and the step count.
type FedNovaTrainer struct {
	Telemetered
	Client *Client

	cfg   Config
	upBuf []byte
}

// NewFedNovaTrainer wires a trainer around a client.
func NewFedNovaTrainer(c *Client, cfg Config) *FedNovaTrainer {
	return &FedNovaTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer.
func (t *FedNovaTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.span(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	nState := m.StateLen(models.ScopeAll)
	nVel := nn.ParamCount(m.Params())
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 2 {
		return nil
	}
	globalState, err1 := comm.DecodeDenseAnyInto(comm.GetF32(nState), parts[0])
	initVel, err2 := comm.DecodeDenseAnyInto(comm.GetF32(nVel), parts[1])
	if err1 != nil || err2 != nil || len(globalState) != nState || len(initVel) != nVel {
		comm.PutF32(globalState)
		comm.PutF32(initVel)
		return nil
	}
	m.SetState(models.ScopeAll, globalState)
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	opts := t.cfg.localOpts(m.Params(), round)
	opts.InitVelocity = initVel // SetVelocity copies, pooled buffer is safe
	train := sp.Child("client.train")
	steps, vel := LocalSGD(t.Client, opts, rng)
	train.End()
	comm.PutF32(initVel)

	localState := m.StateInto(models.ScopeAll, comm.GetF32(nState))
	d := comm.GetF32(nState)
	inv := 1.0 / float64(steps)
	for j := range d {
		d[j] = float32(float64(globalState[j]-localState[j]) * inv)
	}
	comm.PutF32(localState)
	comm.PutF32(globalState)
	if vel == nil {
		vel = make([]float32, nVel)
	}
	t.Client.Velocity = vel
	encD := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(len(d))), d)
	encV := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(len(vel))), vel)
	var stepsBuf [4]byte
	binary.LittleEndian.PutUint32(stepsBuf[:], uint32(steps))
	t.upBuf = comm.JoinPayloadsInto(t.upBuf, encD, encV, stepsBuf[:])
	comm.PutBuf(encV)
	comm.PutBuf(encD)
	comm.PutF32(d)
	return t.upBuf
}

// Finish implements Trainer.
func (t *FedNovaTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
	}
}
