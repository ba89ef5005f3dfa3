package algo

import (
	"math/rand"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/prune"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// SSFL (sparse-native salient-subnetwork federated learning) decides the
// sparse sub-network ONCE and then never densifies it on the wire:
//
//   - Round 0 is the mask-agreement round. The server broadcasts the
//     dense encoder; every client runs a short local warm-up and uploads
//     its per-channel saliency scores (L1 filter norms). The server
//     reduces the score vectors deterministically in float64, derives a
//     single global channel mask per prunable unit (prune.MaskFromScores)
//     and zeroes the pruned channels of the global model.
//   - Every later round is mask-static. The round after agreement
//     carries the index ranges exactly once (a full sparse frame); from
//     then on both directions move values-only frames — just the packed
//     masked values, no indices, no dense vector anywhere on the path.
//     The server reduce runs directly on the packed value vectors
//     (WeightedAverageInto over packed uploads) and only the final apply
//     writes the kept entries back into the model.
//
// The mask is decided once, then it is data: it never participates in
// floating-point order, so the packed reduce is bitwise identical to the
// retained dense reference (SSFLReduceReference) at any GOMAXPROCS.
// Client-side, the zeroed channels make the conv/linear weights sparse,
// which routes local training through the mask-static pattern kernels
// (internal/nn sparseCache) for the whole sparse epoch.

// SSFLOptions configures SSFL.
type SSFLOptions struct {
	// KeepRatio is the fraction of channels kept per prunable unit when
	// the global mask is derived from the aggregated saliency scores
	// (default 0.5). 1.0 keeps every channel — the mask is full, but the
	// wire path still moves values-only frames.
	KeepRatio float64
}

// WithDefaults fills zero fields.
func (o SSFLOptions) WithDefaults() SSFLOptions {
	if o.KeepRatio == 0 {
		o.KeepRatio = 0.5
	}
	return o
}

// ssflScoreLen is the length of the concatenated per-unit saliency score
// vector a client uploads at the agreement round.
func ssflScoreLen(m *models.SplitModel) int {
	n := 0
	for _, u := range m.PrunableUnits() {
		n += u.Conv.OutC
	}
	return n
}

// ssflScoresInto concatenates each prunable unit's channel saliency
// scores into dst (L1 filter norms, the criterion the mask is agreed on).
func ssflScoresInto(dst []float32, m *models.SplitModel) []float32 {
	dst = dst[:0]
	for _, u := range m.PrunableUnits() {
		for _, s := range prune.ChannelScores(u.Conv) {
			dst = append(dst, float32(s))
		}
	}
	return dst
}

// SSFLAggregator is the server side of SSFL.
type SSFLAggregator struct {
	Telemetered
	stream[ssflUpload]
	Global *models.SplitModel
	Opts   SSFLOptions

	cfg    Config
	bcast  []byte
	avgBuf []float32

	// Mask state, fixed at the end of the agreement round.
	sel       *prune.Selection
	ranges    []comm.Range
	keptN     int
	maskRound int // round whose FinishRound agreed the mask

	// Streaming accumulator: unscaled Σ wᵢ·xᵢ over the round's upload
	// vectors — score vectors during the agreement round, packed masked
	// value vectors afterwards. The phase flips only in FinishRound,
	// after the stream drained, so one accumulator serves both.
	acc    []float64
	sumW   float64
	folded int

	curRound   int
	dropped    telemetry.Counter
	sparseUp   telemetry.Counter // values-only uplink bytes accepted
	sparseDown telemetry.Counter // sparse downlink bytes broadcast
}

// ssflUpload is one client's decoded round contribution: a score or
// packed value vector and its data-size weight.
type ssflUpload struct {
	vec []float32
	w   float64
}

// NewSSFLAggregator wires the aggregator around the global model.
func NewSSFLAggregator(global *models.SplitModel, opts SSFLOptions, cfg Config) *SSFLAggregator {
	a := &SSFLAggregator{
		Global:    global,
		Opts:      opts.WithDefaults(),
		cfg:       cfg.WithDefaults(),
		maskRound: -1,
	}
	a.foldFn = a.fold
	a.releaseFn = func(u ssflUpload) { comm.PutF32(u.vec) }
	return a
}

// Dropped reports how many malformed uploads have been discarded.
func (a *SSFLAggregator) Dropped() int64 { return a.dropped.Value() }

// Selection exposes the agreed global selection (nil before agreement).
func (a *SSFLAggregator) Selection() *prune.Selection { return a.sel }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// and the sparse wire-byte counters through the registry.
func (a *SSFLAggregator) SetTelemetry(s *telemetry.Set) {
	a.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &a.dropped)
		s.Reg.Attach("comm.sparse_up_bytes", &a.sparseUp)
		s.Reg.Attach("comm.sparse_down_bytes", &a.sparseDown)
		a.wireStream(s.Reg)
	}
}

// Broadcast implements Aggregator: the dense encoder before agreement; a
// full sparse frame (indices travel exactly once) the round right after
// agreement; values-only frames every round thereafter.
func (a *SSFLAggregator) Broadcast(round int) []byte {
	defer a.span(round, "agg.broadcast").End()
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	if a.sel == nil {
		a.bcast = a.cfg.encodeDenseInto(a.bcast, state)
	} else {
		var sw comm.Sparse
		comm.GatherSparseInto(&sw, state, a.ranges)
		if round == a.maskRound+1 {
			a.bcast = a.cfg.encodeSparseInto(a.bcast, &sw)
		} else if a.cfg.HalfPrecision {
			a.bcast = comm.EncodeSparseValsF16Into(a.bcast, sw.Values)
		} else {
			a.bcast = comm.EncodeSparseValsInto(a.bcast, sw.Values)
		}
		a.sparseDown.Add(int64(len(a.bcast)))
	}
	comm.PutF32(state)
	a.size("payload.down", len(a.bcast))
	return a.bcast
}

// collectScores decodes one agreement-round score upload.
func (a *SSFLAggregator) collectScores(payload []byte) ([]float32, bool) {
	want := ssflScoreLen(a.Global)
	scores, err := comm.DecodeDenseAnyInto(comm.GetF32(want), payload)
	if err != nil || len(scores) != want {
		a.dropped.Add(1)
		comm.PutF32(scores)
		return nil, false
	}
	return scores, true
}

// collectPacked decodes one values-only sparse-round upload.
func (a *SSFLAggregator) collectPacked(payload []byte) ([]float32, bool) {
	vals, err := comm.DecodeSparseValsAnyInto(comm.GetF32(a.keptN), payload)
	if err != nil || len(vals) != a.keptN {
		a.dropped.Add(1)
		comm.PutF32(vals)
		return nil, false
	}
	a.sparseUp.Add(int64(len(payload)))
	return vals, true
}

// decodeUpload decodes one upload for the current phase; the shared
// front half of Collect, CollectLate and CollectBatch.
func (a *SSFLAggregator) decodeUpload(trainSize int, payload []byte) (ssflUpload, bool) {
	a.size("payload.up", len(payload))
	var vec []float32
	var ok bool
	if a.sel == nil {
		vec, ok = a.collectScores(payload)
	} else {
		vec, ok = a.collectPacked(payload)
	}
	if !ok {
		return ssflUpload{}, false
	}
	return ssflUpload{vec: vec, w: float64(trainSize)}, true
}

// fold adds one upload's unscaled wᵢ·xᵢ term into the float64
// accumulator — the same fold for both phases, since the vector length
// (score vs packed) is fixed within a round and the phase only flips in
// FinishRound after the stream drained.
func (a *SSFLAggregator) fold(u ssflUpload) {
	defer a.span(a.curRound, "agg.fold").End()
	n := len(u.vec)
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
		tensor.VecAccumScaled(a.acc[lo:hi], u.vec[lo:hi], u.w)
	})
}

// Collect implements Aggregator: decode, then fold through the
// streaming cursor; buffers release right after the fold.
func (a *SSFLAggregator) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.ingest(client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor. A stale
// score upload arriving after the mask was agreed fails the packed
// decode and counts as dropped, same as the buffered path.
func (a *SSFLAggregator) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	if u, ok := a.decodeUpload(trainSize, payload); ok {
		a.foldNow(u)
	}
}

// CollectBatch implements BatchCollector: the Collect decode run
// concurrently over a whole batch, then ingested in upload order.
func (a *SSFLAggregator) CollectBatch(round int, ups []Upload) {
	defer a.span(round, "agg.collect").End()
	a.curRound = round
	type entry struct {
		client uint32
		u      ssflUpload
	}
	entries := decodeBatch(ups, func(up Upload) (entry, bool) {
		u, ok := a.decodeUpload(up.TrainSize, up.Payload)
		return entry{client: up.Client, u: u}, ok
	})
	for _, e := range entries {
		a.ingest(e.client, e.u)
	}
}

// FinishRound implements Aggregator.
func (a *SSFLAggregator) FinishRound(round int) {
	defer a.span(round, "agg.reduce").End()
	a.curRound = round
	a.finishStream()
	if a.sel == nil {
		a.agreeMask(round)
		return
	}
	if a.folded == 0 || a.sumW == 0 {
		a.folded = 0
		return
	}
	// The fold ran entirely on packed vectors; only this apply touches a
	// dense view, and only at the kept indices — the complement stays
	// the zeros ZeroPruned wrote at agreement.
	if cap(a.avgBuf) < a.keptN {
		a.avgBuf = make([]float32, a.keptN)
	}
	avg := a.avgBuf[:a.keptN]
	tensor.Parallel(a.keptN, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			avg[j] = float32(a.acc[j] / a.sumW)
		}
	})
	a.avgBuf = avg
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	comm.ScatterCopy(state, avg, a.ranges)
	a.Global.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)
	a.folded = 0
	a.sumW = 0
}

// agreeMask finalizes the streamed saliency-score fold into the single
// global mask, fixes the salient index ranges for the rest of the
// federation, and zeroes the pruned channels of the global model. The
// scores already folded on arrival; this divides by Σw and derives the
// mask — matching StreamFoldRefSSFLScores bitwise.
func (a *SSFLAggregator) agreeMask(round int) {
	scoreLen := ssflScoreLen(a.Global)
	avg := make([]float64, scoreLen)
	if a.folded > 0 && a.sumW != 0 {
		for j := range avg {
			avg[j] = a.acc[j] / a.sumW
		}
	} else {
		// No survivor this round: agree on the global model's own
		// saliency so the federation still enters the sparse epoch.
		off := 0
		for _, u := range a.Global.PrunableUnits() {
			for _, s := range prune.ChannelScores(u.Conv) {
				avg[off] = s
				off++
			}
		}
	}

	units := a.Global.PrunableUnits()
	masks := make([]prune.Mask, len(units))
	off := 0
	for i, u := range units {
		masks[i] = prune.MaskFromScores(avg[off:off+u.Conv.OutC], a.Opts.KeepRatio)
		off += u.Conv.OutC
	}
	a.sel = prune.SelectWithMasks(a.Global, masks)
	a.ranges = a.sel.Ranges
	a.keptN = 0
	for _, r := range a.ranges {
		a.keptN += int(r.Len)
	}
	a.maskRound = round

	// Zero the pruned sub-network: ZeroPruned handles the channel-level
	// structures (rows, bias, BN affine), then the state-level pass
	// forces the entire non-salient complement — including consumer-conv
	// input columns — to exactly zero, the invariant every later round
	// preserves by never writing outside the kept ranges.
	prune.ZeroPruned(a.Global, a.sel)
	n := a.Global.StateLen(models.ScopeEncoder)
	state := a.Global.StateInto(models.ScopeEncoder, comm.GetF32(n))
	comm.ZeroRanges(state, comm.ComplementRanges(a.ranges, n))
	a.Global.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	frame := comm.SparseValsLen(a.keptN)
	if a.cfg.HalfPrecision {
		frame = comm.SparseValsF16Len(a.keptN)
	}
	if tel := a.Telemetry(); tel != nil {
		tel.Emit(telemetry.MaskAgreement(round, a.keptN, int64(frame)))
	}

	a.folded = 0
	a.sumW = 0
}

// Final implements Aggregator: a full sparse frame once the mask exists
// (the complement is zero by construction), dense before agreement.
func (a *SSFLAggregator) Final() []byte {
	if a.sel == nil {
		return comm.EncodeDense(a.Global.State(models.ScopeEncoder))
	}
	state := a.Global.State(models.ScopeEncoder)
	return comm.EncodeSparse(comm.GatherSparse(state, a.ranges))
}

// SSFLReduceReference is the retained dense reference for the packed
// sparse reduce: densify every upload onto the global state, run the
// serial dense streaming fold, return the new state (nil when nothing
// survived). FinishRound's packed reduction must match it bitwise at any
// GOMAXPROCS — the complement contributes exact zeros to every term, and
// at the kept indices both reductions fold clients in ascending order in
// float64.
func SSFLReduceReference(global []float32, packed [][]float32, weights []float64, ranges []comm.Range) []float32 {
	states := make([][]float32, len(packed))
	for i, p := range packed {
		if p == nil {
			continue
		}
		st := append([]float32(nil), global...)
		if !comm.ScatterCopy(st, p, ranges) {
			continue
		}
		states[i] = st
	}
	return StreamFoldRefFedAvg(states, weights)
}

// SSFLTrainer is the client side of SSFL.
type SSFLTrainer struct {
	Telemetered
	Client *Client
	Opts   SSFLOptions

	cfg   Config
	upBuf []byte

	// Mask state, copied out of the one full sparse frame received after
	// agreement (broadcast payloads are shared across clients and only
	// valid during the call — the ranges must be owned here).
	ranges     []comm.Range
	complement []comm.Range
	keptN      int
}

// NewSSFLTrainer wires a trainer around a client.
func NewSSFLTrainer(c *Client, opts SSFLOptions, cfg Config) *SSFLTrainer {
	return &SSFLTrainer{Client: c, Opts: opts.WithDefaults(), cfg: cfg.WithDefaults()}
}

// LocalUpdate implements Trainer. The frame magic selects the phase: a
// dense broadcast is the agreement round (warm up, upload saliency
// scores); a full sparse frame installs the mask and its index ranges; a
// values-only frame is a steady-state sparse round. A values-only frame
// arriving before this client has seen the ranges (it was never sampled
// for the index-bearing round) is unusable — the client sits the round
// out rather than guessing.
func (t *SSFLTrainer) LocalUpdate(round int, payload []byte) []byte {
	sp := t.span(round, "client.update")
	defer sp.End()
	if len(payload) == 0 {
		return nil
	}
	m := t.Client.Model
	nState := m.StateLen(models.ScopeEncoder)
	switch comm.KindOf(payload) {
	case comm.FrameDense:
		return t.agreementUpdate(sp, round, payload, nState)
	case comm.FrameSparse:
		sw := &comm.Sparse{Values: comm.GetF32(len(payload) / 4)[:0]}
		if err := comm.DecodeSparseAnyInto(sw, payload); err != nil {
			comm.PutSparse(sw)
			return nil
		}
		t.ranges = append(t.ranges[:0], sw.Ranges...)
		t.complement = comm.ComplementRanges(t.ranges, nState)
		t.keptN = len(sw.Values)
		up := t.sparseUpdate(sp, round, sw.Values, nState)
		comm.PutSparse(sw)
		return up
	case comm.FrameSparseVals:
		if t.ranges == nil {
			return nil
		}
		vals, err := comm.DecodeSparseValsAnyInto(comm.GetF32(t.keptN), payload)
		if err != nil || len(vals) != t.keptN {
			comm.PutF32(vals)
			return nil
		}
		up := t.sparseUpdate(sp, round, vals, nState)
		comm.PutF32(vals)
		return up
	default:
		return nil
	}
}

// agreementUpdate handles the mask-agreement round: install the dense
// encoder, run the standard local update as warm-up, upload the
// per-channel saliency scores of the warmed-up encoder.
func (t *SSFLTrainer) agreementUpdate(sp *telemetry.Span, round int, payload []byte, nState int) []byte {
	m := t.Client.Model
	state, err := comm.DecodeDenseAnyInto(comm.GetF32(nState), payload)
	if err != nil || len(state) != nState {
		comm.PutF32(state)
		return nil
	}
	m.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, t.cfg.localOpts(m.Params(), round), rng)
	train.End()

	scores := ssflScoresInto(comm.GetF32(ssflScoreLen(m)), m)
	t.upBuf = t.cfg.encodeDenseInto(t.upBuf, scores)
	comm.PutF32(scores)
	return t.upBuf
}

// sparseUpdate handles a mask-static round: overwrite the salient
// entries with the received packed values, keep the complement at zero,
// train with the pruned gradients zeroed so the mask survives the
// optimizer, and upload the packed salient local state — values-only.
func (t *SSFLTrainer) sparseUpdate(sp *telemetry.Span, round int, vals []float32, nState int) []byte {
	m := t.Client.Model
	state := m.StateInto(models.ScopeEncoder, comm.GetF32(nState))
	comm.ZeroRanges(state, t.complement)
	if !comm.ScatterCopy(state, vals, t.ranges) {
		comm.PutF32(state)
		return nil
	}
	m.SetState(models.ScopeEncoder, state)
	comm.PutF32(state)

	ctrlP := m.EncoderParams()
	opts := t.cfg.localOpts(m.Params(), round)
	// The complement ranges index the encoder state vector, whose prefix
	// is exactly the flattened trainable encoder parameters (the tail is
	// BN running statistics, which take no gradient).
	opts.Hook = zeroGradRanges(ClipRanges(t.complement, nn.ParamCount(ctrlP)), ctrlP)
	rng := rand.New(rand.NewSource(ClientSeed(t.cfg.Seed, round, t.Client.ID)))
	train := sp.Child("client.train")
	LocalSGD(t.Client, opts, rng)
	train.End()

	local := m.StateInto(models.ScopeEncoder, comm.GetF32(nState))
	var sw comm.Sparse
	comm.GatherSparseInto(&sw, local, t.ranges)
	if t.cfg.HalfPrecision {
		t.upBuf = comm.EncodeSparseValsF16Into(t.upBuf, sw.Values)
	} else {
		t.upBuf = comm.EncodeSparseValsInto(t.upBuf, sw.Values)
	}
	comm.PutF32(sw.Values[:0])
	comm.PutF32(local)
	return t.upBuf
}

// zeroGradRanges returns a LocalOpts hook zeroing the gradient entries
// covered by ranges over the flattened ctrlP parameters — the mechanism
// that keeps pruned weights at exactly zero through every optimizer
// step, so the agreed mask is static for the whole sparse epoch.
func zeroGradRanges(ranges []comm.Range, ctrlP []*nn.Param) func(params []*nn.Param) {
	return func(_ []*nn.Param) {
		off := 0
		ri := 0
		for _, p := range ctrlP {
			n := p.W.Len()
			for ri < len(ranges) {
				r := ranges[ri]
				if int(r.Start) >= off+n {
					break
				}
				s, e := int(r.Start), int(r.Start)+int(r.Len)
				if s < off {
					s = off
				}
				if e > off+n {
					e = off + n
				}
				run := p.G.Data[s-off : e-off]
				for i := range run {
					run[i] = 0
				}
				if int(r.Start)+int(r.Len) <= off+n {
					ri++
				} else {
					break // range continues into the next parameter
				}
			}
			off += n
		}
	}
}

// Finish implements Trainer: install the final model from either frame
// kind. For a sparse frame the complement is zero by protocol, so the
// state reconstructs exactly from the packed values.
func (t *SSFLTrainer) Finish(payload []byte) {
	if len(payload) == 0 {
		return
	}
	m := t.Client.Model
	switch comm.KindOf(payload) {
	case comm.FrameSparse:
		var sw comm.Sparse
		if err := comm.DecodeSparseAnyInto(&sw, payload); err != nil {
			return
		}
		state := make([]float32, m.StateLen(models.ScopeEncoder))
		if comm.ScatterCopy(state, sw.Values, sw.Ranges) {
			m.SetState(models.ScopeEncoder, state)
		}
	default:
		if state, err := comm.DecodeDenseAnyInto(nil, payload); err == nil {
			m.SetState(models.ScopeEncoder, state)
		}
	}
}
