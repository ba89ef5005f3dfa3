package algo

import (
	"fmt"
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// SCAFFOLDAggregator is the server side of SCAFFOLD (Karimireddy et
// al.): it holds the server control variate c, broadcasts it alongside
// the model, and folds the uploaded (Δw, Δc) pairs with
// x += (1/|S|)·ΣΔw and c += (1/N)·ΣΔc.
type SCAFFOLDAggregator struct {
	Telemetered
	stream[scaffoldUpload]
	Global *models.SplitModel

	cfg      Config
	c        []float32 // server control variate over trainable params
	bcast    []byte
	accW     []float64 // unscaled ΣΔwᵢ, folded on arrival
	accC     []float64 // unscaled ΣΔcᵢ
	folded   int
	curRound int
	dropped  telemetry.Counter
}

// scaffoldUpload is one client's decoded round contribution.
type scaffoldUpload struct {
	dW, dC []float32
}

// NewSCAFFOLDAggregator wires the aggregator around the global model.
// cfg.NumClients must be the federation size N (the control update
// scales by 1/N).
func NewSCAFFOLDAggregator(global *models.SplitModel, cfg Config) *SCAFFOLDAggregator {
	cfg = cfg.WithDefaults()
	if cfg.NumClients <= 0 {
		panic(fmt.Sprintf("algo: SCAFFOLD needs Config.NumClients > 0, got %d", cfg.NumClients))
	}
	a := &SCAFFOLDAggregator{
		Global: global,
		cfg:    cfg,
		c:      make([]float32, nn.ParamCount(global.Params())),
	}
	a.foldFn = a.fold
	a.releaseFn = func(u scaffoldUpload) {
		comm.PutF32(u.dW)
		comm.PutF32(u.dC)
	}
	return a
}

// ControlVariate exposes the server control variate c (read-only use).
func (a *SCAFFOLDAggregator) ControlVariate() []float32 { return a.c }

// Dropped reports how many malformed uploads have been discarded.
func (a *SCAFFOLDAggregator) Dropped() int64 { return a.dropped.Value() }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// through the registry — the same counter Dropped reads.
func (a *SCAFFOLDAggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &a.dropped)
		a.wireStream(s.Reg)
	}
}

// Broadcast implements Aggregator: joined dense payloads for the model
// state and the server control variate.
func (a *SCAFFOLDAggregator) Broadcast(round int) []byte {
	defer a.span(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeAll)
	state := a.Global.StateInto(models.ScopeAll, comm.GetF32(n))
	encS := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(n)), state)
	encC := a.cfg.encodeDenseInto(comm.GetBuf(a.cfg.denseLen(len(a.c))), a.c)
	a.bcast = comm.JoinPayloadsInto(a.bcast, encS, encC)
	comm.PutBuf(encC)
	comm.PutBuf(encS)
	comm.PutF32(state)
	a.size("payload.down", len(a.bcast))
	return a.bcast
}

// decodeUpload decodes one joined (Δw, Δc) upload; the shared front
// half of Collect, CollectLate and CollectBatch.
func (a *SCAFFOLDAggregator) decodeUpload(payload []byte) (scaffoldUpload, bool) {
	a.size("payload.up", len(payload))
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 2 {
		a.dropped.Add(1)
		return scaffoldUpload{}, false
	}
	nState := a.Global.StateLen(models.ScopeAll)
	dW, err1 := comm.DecodeDenseAnyInto(comm.GetF32(nState), parts[0])
	dC, err2 := comm.DecodeDenseAnyInto(comm.GetF32(len(a.c)), parts[1])
	if err1 != nil || err2 != nil || len(dW) != nState || len(dC) != len(a.c) {
		a.dropped.Add(1)
		comm.PutF32(dW)
		comm.PutF32(dC)
		return scaffoldUpload{}, false
	}
	return scaffoldUpload{dW: dW, dC: dC}, true
}

// fold adds one upload's unscaled ΣΔw / ΣΔc terms into the float64
// accumulators. SCAFFOLD weights every arrived upload equally, so the
// fold carries no weight — the 1/|S| scaling happens at finalize.
func (a *SCAFFOLDAggregator) fold(u scaffoldUpload) {
	defer a.span(a.curRound, "agg.fold").End()
	if a.folded == 0 {
		if cap(a.accW) < len(u.dW) {
			a.accW = make([]float64, len(u.dW))
		}
		a.accW = a.accW[:len(u.dW)]
		for j := range a.accW {
			a.accW[j] = 0
		}
		if cap(a.accC) < len(u.dC) {
			a.accC = make([]float64, len(u.dC))
		}
		a.accC = a.accC[:len(u.dC)]
		for j := range a.accC {
			a.accC[j] = 0
		}
	}
	a.folded++
	tensor.Parallel(len(u.dW), func(lo, hi int) {
		tensor.VecAccumScaled(a.accW[lo:hi], u.dW[lo:hi], 1)
	})
	tensor.Parallel(len(u.dC), func(lo, hi int) {
		tensor.VecAccumScaled(a.accC[lo:hi], u.dC[lo:hi], 1)
	})
}

// Collect implements Aggregator: decode, then fold through the
// streaming cursor; buffers release right after the fold.
func (a *SCAFFOLDAggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(payload); ok {
		a.ingest(client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor.
func (a *SCAFFOLDAggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(payload); ok {
		a.foldNow(u)
	}
}

// CollectBatch implements BatchCollector: the Collect decode run
// concurrently over a whole batch, then ingested in upload order.
func (a *SCAFFOLDAggregator) CollectBatch(round int, ups []Upload) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	type entry struct {
		client uint32
		u      scaffoldUpload
	}
	entries := decodeBatch(ups, func(up Upload) (entry, bool) {
		u, ok := a.decodeUpload(up.Payload)
		return entry{client: up.Client, u: u}, ok
	})
	for _, e := range entries {
		a.ingest(e.client, e.u)
	}
}

// FinishRound implements Aggregator: x ← x_g + (ΣΔw)/|S| ; c ← c +
// (ΣΔc)/N, where S is the set of clients whose uploads actually
// arrived — the finalize half of the two-phase reduce, bitwise
// identical to StreamFoldRefSCAFFOLD at any GOMAXPROCS.
func (a *SCAFFOLDAggregator) FinishRound(round int) {
	defer a.span(round, "agg.reduce").End()
	a.curRound = round
	a.finishStream()
	if a.folded == 0 {
		return
	}
	nState := len(a.accW)
	globalState := a.Global.StateInto(models.ScopeAll, comm.GetF32(nState))
	newState := comm.GetF32(nState)
	invS := float64(a.folded)
	tensor.Parallel(nState, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			newState[j] = float32(float64(globalState[j]) + a.accW[j]/invS)
		}
	})
	a.Global.SetState(models.ScopeAll, newState)
	comm.PutF32(newState)
	comm.PutF32(globalState)
	invN := float64(a.cfg.NumClients)
	tensor.Parallel(len(a.c), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			a.c[j] = float32(float64(a.c[j]) + a.accC[j]/invN)
		}
	})
	a.folded = 0
}

// Final implements Aggregator.
func (a *SCAFFOLDAggregator) Final() []byte {
	return comm.EncodeDense(a.Global.State(models.ScopeAll))
}

// SCAFFOLDTrainer is the client side: control-variate-corrected local
// SGD, then an Option-II control update, uploading the joined (Δw, Δc)
// pair — the ≈2× FedAvg per-round payload the SPATL paper highlights.
type SCAFFOLDTrainer struct {
	Telemetered
	Client *Client

	cfg   Config
	upBuf []byte
}

// NewSCAFFOLDTrainer wires a trainer around a client, initializing its
// control variate to zero if unset.
func NewSCAFFOLDTrainer(c *Client, cfg Config) *SCAFFOLDTrainer {
	if c.Control == nil {
		c.Control = make([]float32, nn.ParamCount(c.Model.Params()))
	}
	return &SCAFFOLDTrainer{Client: c, cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer.
func (t *SCAFFOLDTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.span(round, "client.update")
	defer sp.End()
	m := t.Client.Model
	nState := m.StateLen(models.ScopeAll)
	nCtrl := len(t.Client.Control)
	parts, err := comm.SplitPayloads(payload)
	if err != nil || len(parts) != 2 {
		return nil
	}
	globalState, err1 := comm.DecodeDenseAnyInto(comm.GetF32(nState), parts[0])
	serverC, err2 := comm.DecodeDenseAnyInto(comm.GetF32(nCtrl), parts[1])
	if err1 != nil || err2 != nil || len(globalState) != nState || len(serverC) != nCtrl {
		comm.PutF32(globalState)
		comm.PutF32(serverC)
		return nil
	}
	m.SetState(models.ScopeAll, globalState)
	globalFlat := nn.FlattenParams(m.Params())

	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	opts := t.cfg.localOpts(m.Params(), round)
	opts.Hook = addControl(serverC, t.Client.Control, m.Params())
	train := sp.Child("client.train")
	steps, _ := LocalSGD(t.Client, opts, rng)
	train.End()

	localFlat := nn.FlattenParams(m.Params())
	localState := m.StateInto(models.ScopeAll, comm.GetF32(nState))
	// Option-II control update: cᵢ⁺ = cᵢ − c + (x_g − x_i)/(K·η_eff).
	// With classical momentum each unit of gradient moves the weights
	// by ≈ η/(1−µ) over time, so the effective step size is scaled
	// accordingly; without the correction the control variates
	// overestimate gradients by 1/(1−µ) and training explodes.
	inv := 1.0 / (float64(steps) * EffectiveLR(t.cfg.LRAt(round), t.cfg.Momentum))
	newCi := make([]float32, nCtrl)
	dC := comm.GetF32(nCtrl)
	for j := range localFlat {
		newCi[j] = t.Client.Control[j] - serverC[j] + float32(float64(globalFlat[j]-localFlat[j])*inv)
		dC[j] = newCi[j] - t.Client.Control[j]
	}
	t.Client.Control = newCi
	comm.PutF32(serverC)

	dW := comm.GetF32(nState)
	for j := range localState {
		dW[j] = localState[j] - globalState[j]
	}
	comm.PutF32(localState)
	comm.PutF32(globalState)
	encW := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(nState)), dW)
	encC := t.cfg.encodeDenseInto(comm.GetBuf(t.cfg.denseLen(nCtrl)), dC)
	t.upBuf = comm.JoinPayloadsInto(t.upBuf, encW, encC)
	comm.PutBuf(encC)
	comm.PutBuf(encW)
	comm.PutF32(dW)
	comm.PutF32(dC)
	return t.upBuf
}

// Finish implements Trainer.
func (t *SCAFFOLDTrainer) Finish(payload []byte) {
	if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
		t.Client.Model.SetState(models.ScopeAll, state)
	}
}
