package fl

import (
	"fmt"
	"math/rand"
	"sort"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// MassiveSim federates hundreds of thousands to a million simulated
// clients in one process. Real clients (models, datasets, SGD) cost
// megabytes each; at 100k+ that is not a simulation, it is an OOM. A
// massive client is three integers — ID, train size, seed — and its
// round upload is synthesized as a patched copy of the round broadcast:
// a valid dense payload, unique per (round, client), produced by memcpy
// instead of training. What remains real is everything this repo's
// server side is: the aggregator core, the shard-pooling wire format,
// the quorum/late-fold semantics and the telemetry. That is the point —
// MassiveSim exists to exercise and benchmark federation mechanics at
// a scale where per-upload overhead dominates.
//
// Rounds run through the sharded collection tree (algo.ShardBuffer in
// shard-ID order) exactly as the sharded Sim does, on the same
// algo.Round, so the journal carries the same events in the same order.
// With OnTimeFrac < 1 the round closes at quorum: the deterministic
// late fraction of sampled uploads misses the round and folds into the
// next one (FedBuff-style), journaled as late_upload events and counted
// in "fl.late_uploads".
type MassiveConfig struct {
	Clients  int // total simulated clients
	PerRound int // sampled per round (0 = all)
	Shards   int // aggregation-tree width (0 = 1)
	Rounds   int

	// OnTimeFrac is the fraction of sampled uploads that arrive before
	// the quorum closes the round; the rest arrive during the next
	// round and fold late. 0 or 1 keeps every upload synchronous.
	OnTimeFrac float64

	// Spec is the synthetic model; the zero value builds a small MLP.
	Spec models.Spec
	Seed int64

	// FlatCollect bypasses the shard layer: uploads are collected one
	// by one in selection order, the flat server's code path. The
	// baseline for the sharded-vs-flat federation benchmarks.
	FlatCollect bool

	Tel *telemetry.Set
}

// MassiveResult summarizes a massive federation run.
type MassiveResult struct {
	Rounds      int
	Folded      int64 // uploads folded across all rounds (on-time + late)
	Late        int64 // uploads folded one round after they were computed
	FinalState  []float32
	UpBytes     int64
	RelayBytes  int64
	ShardPushes int64
}

// massiveSynthBatch bounds how many synthetic uploads are alive at once
// inside a shard's collect pass: uploads are synthesized into pooled
// buffers this many at a time and each buffer recycles as soon as it is
// folded. Large enough to keep the synthesis memcpy parallel, small
// enough that round memory is governed by the batch, not the selection.
const massiveSynthBatch = 1024

// RunMassive executes a massive synthetic federation and returns its
// summary. The run is deterministic in the config: same config, same
// final state bitwise, whatever the shard count (the sharded fold is
// order-identical to flat collect).
func RunMassive(cfg MassiveConfig) (*MassiveResult, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fl: massive sim needs positive Clients and Rounds")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	shards := cfg.Shards
	if cfg.FlatCollect {
		shards = 1 // one pass over the whole selection, collected per upload
	}
	spec := cfg.Spec
	if spec.Arch == "" {
		spec = models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}
	}
	global := models.Build(spec, cfg.Seed)
	agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: cfg.Clients, Seed: cfg.Seed})
	tel := cfg.Tel
	algo.Wire(tel, agg)
	var lateCtr telemetry.Counter
	if tel != nil && tel.Reg != nil {
		tel.Reg.Attach("fl.late_uploads", &lateCtr)
	}
	nState := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &MassiveResult{Rounds: cfg.Rounds}
	r := algo.NewRound(agg, tel)

	var pendingLate []algo.Upload
	var sb algo.ShardBuffer
	batch := make([][]byte, 0, massiveSynthBatch)
	for round := 0; round < cfg.Rounds; round++ {
		bcast := agg.Broadcast(round)
		selected := rng.Perm(cfg.Clients)[:cfg.PerRound]
		sort.Ints(selected)
		sel := make([]algo.Upload, len(selected))
		for pos, ci := range selected {
			sel[pos] = algo.Upload{Client: uint32(ci), TrainSize: 50 + ci%101}
		}
		r.Begin(round, sel, len(bcast))

		// Stragglers from the previous round land first, FedBuff-style.
		// Each payload is a pooled buffer held since its synthesis; the
		// fold is its last use, so it recycles immediately.
		for _, lu := range pendingLate {
			lateCtr.Inc()
			res.Late++
			res.UpBytes += int64(len(lu.Payload))
			r.Late(lu)
			comm.PutBuf(lu.Payload)
		}
		pendingLate = pendingLate[:0]

		// Shard-major collection, identical order to the sharded Sim.
		// Uploads are synthesized in bounded pooled batches — a copy of
		// the broadcast with one client-and-round-specific float patched,
		// a valid dense payload without any training — and every buffer
		// returns to the pool the moment its bytes are folded (the
		// aggregator decodes into its own buffers and ShardBuffer.Add
		// copies). Only stragglers' buffers outlive the batch: they are
		// carried into the next round and recycled after the late fold.
		// Peak upload memory per round is O(batch + stragglers), not
		// O(selected).
		forShards(selected, cfg.Clients, shards, func(sh, lo, hi int) {
			sb.Reset()
			for chunkLo := lo; chunkLo < hi; chunkLo += massiveSynthBatch {
				chunkHi := min(chunkLo+massiveSynthBatch, hi)
				batch = batch[:chunkHi-chunkLo]
				tensor.Parallel(len(batch), func(blo, bhi int) {
					for b := blo; b < bhi; b++ {
						ci := selected[chunkLo+b]
						up := comm.GetBuf(len(bcast))
						copy(up, bcast)
						delta := float32(round+1) * (1 + float32(ci%997)/997)
						comm.PatchDensePayload(up, ci%nState, delta)
						batch[b] = up
					}
				})
				for b, up := range batch {
					pos := chunkLo + b
					if !onTime(cfg.Seed, round, selected[pos], cfg.OnTimeFrac) {
						// Missed the quorum close: folds next round.
						r.Defer(pos)
						lu := sel[pos]
						lu.Payload = up
						pendingLate = append(pendingLate, lu)
						continue
					}
					res.UpBytes += int64(len(up))
					if cfg.FlatCollect {
						r.Collect(pos, up, r.Elapsed())
					} else {
						sb.Add(sel[pos].Client, sel[pos].TrainSize, up)
					}
					comm.PutBuf(up)
				}
			}
			if cfg.FlatCollect {
				return
			}
			res.RelayBytes += int64(len(sb.Payload()))
			res.ShardPushes++
			r.Shard(sh, lo, hi, sb.Payload(), nil)
		})
		if cfg.OnTimeFrac > 0 && cfg.OnTimeFrac < 1 {
			r.MetQuorum()
		}
		r.Finish(res.UpBytes, 0)
		res.Folded += int64(r.Folded())
	}
	res.FinalState = global.State(models.ScopeAll)
	return res, nil
}
