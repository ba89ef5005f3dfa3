package fl

import (
	"fmt"
	"math/rand"
	"time"

	"spatl/internal/algo"
)

// Sim is the in-process transport: it drives a transport-agnostic
// algorithm core (algo.Aggregator + one algo.Trainer per client) through
// communication rounds, adding what a simulated network contributes —
// comm.Meter byte accounting, deterministic failure injection
// (Config.DropRate) and parallel client execution. The environment's
// Topology picks the delivery and close rule:
//
//   - flat (the zero value): every upload is collected one by one;
//   - sharded: clients are partitioned into contiguous shards of the
//     client-index order, each shard pools its uploads into an
//     algo.ShardBuffer — the wire format an edge aggregator forwards to
//     the TCP tree root — and the pooled payloads fold in shard-ID
//     order. Selections are sorted ascending, so shard-major order is
//     flat selection order and the fold is bitwise identical to flat;
//     the pooled payloads and the per-shard broadcasts go to the
//     meter's relay counters;
//   - quorum: each round closes before every upload has arrived. Which
//     uploads miss the close is decided deterministically per (seed,
//     round, client), so unlike the TCP server's wall-clock-raced
//     quorum a seeded run is bitwise reproducible; the stragglers'
//     uploads fold into the next round as late uploads.
//
// Training runs in parallel over the whole selection first; every
// aggregator call and journal event then goes through the shared
// algo.Round from sequential code, so a seeded zero-time run's journal
// is reproducible and byte-identical to the TCP transports' (see the
// cross-transport tests).
type Sim struct {
	Env      *Env
	Agg      algo.Aggregator
	Trainers []algo.Trainer // indexed by client ID

	r       *algo.Round
	sb      algo.ShardBuffer
	pending []algo.Upload // quorum stragglers' uploads awaiting the next round
}

// NewSim wires an aggregator and per-client trainers into a Sim for the
// environment's topology, installing the environment's telemetry set
// (if any) on every core.
func NewSim(env *Env, agg algo.Aggregator, trainers []algo.Trainer) *Sim {
	switch env.Topo.Kind {
	case "", TopoFlat, TopoSharded, TopoQuorum:
	default:
		panic(fmt.Sprintf("fl: unknown topology kind %q", env.Topo.Kind))
	}
	if env.Tel != nil {
		algo.Wire(env.Tel, agg)
		for _, t := range trainers {
			algo.Wire(env.Tel, t)
		}
	}
	return &Sim{Env: env, Agg: agg, Trainers: trainers, r: algo.NewRound(agg, env.Tel)}
}

// Pending reports how many quorum stragglers' uploads are waiting to
// fold into the next round (uploads deferred at the end of the
// federation are never folded, matching the TCP server, which drains
// and counts them without folding).
func (s *Sim) Pending() int { return len(s.pending) }

// Round runs one communication round over the selected clients (sorted
// ascending).
func (s *Sim) Round(round int, selected []int) {
	env := s.Env
	r := s.r
	payload := s.Agg.Broadcast(round)
	sel := make([]algo.Upload, len(selected))
	for pos, ci := range selected {
		sel[pos] = algo.Upload{Client: uint32(ci), TrainSize: env.Clients[ci].Train.Len()}
	}
	r.Begin(round, sel, len(payload))

	// Stragglers from the previous round land first: fold them into
	// this round before its own collect, FedBuff-style.
	for _, lu := range s.pending {
		env.Meter.AddUp(len(lu.Payload))
		r.Late(lu)
	}
	s.pending = s.pending[:0]

	ups := make([][]byte, len(selected))
	durs := make([]int64, len(selected))
	ParallelClients(selected, func(pos int) {
		ci := selected[pos]
		env.Meter.AddDown(len(payload))
		if env.ClientFailed(round, ci) {
			return // crashed after download: upload lost
		}
		t0 := time.Now()
		ups[pos] = s.Trainers[ci].LocalUpdate(round, payload)
		durs[pos] = time.Since(t0).Nanoseconds()
	})

	var frac float64
	if env.Topo.Kind == TopoQuorum {
		frac = env.Topo.OnTimeFrac
	}
	if env.Topo.Kind == TopoSharded {
		forShards(selected, env.Cfg.NumClients, env.Topo.Shards, func(sh, lo, hi int) {
			env.Meter.AddRelayDown(len(payload)) // one broadcast per participating edge
			s.sb.Reset()
			for p := lo; p < hi; p++ {
				if ups[p] != nil {
					env.Meter.AddUp(len(ups[p]))
					s.sb.Add(sel[p].Client, sel[p].TrainSize, ups[p])
				}
			}
			env.Meter.AddRelayUp(len(s.sb.Payload()))
			r.Shard(sh, lo, hi, s.sb.Payload(), durs) // crashed clients drop here
		})
	} else {
		for pos, ci := range selected {
			switch {
			case ups[pos] == nil:
				r.Drop(pos)
			case !onTime(env.Cfg.Seed, round, ci, frac):
				// Missed the quorum close: the payload slice is owned by
				// the trainer and reused next round, so defer a copy.
				r.Defer(pos)
				lu := sel[pos]
				lu.Payload = append([]byte(nil), ups[pos]...)
				s.pending = append(s.pending, lu)
			default:
				env.Meter.AddUp(len(ups[pos]))
				r.Collect(pos, ups[pos], durs[pos])
			}
		}
	}
	if frac > 0 && frac < 1 {
		r.MetQuorum()
	}
	r.Finish(env.Meter.Up(), env.Meter.Down())
}

// onTime deterministically decides whether a selected client's upload
// beats the quorum close of its round. frac is the on-time fraction; 0
// or >= 1 makes every upload on time.
func onTime(seed int64, round, client int, frac float64) bool {
	if frac <= 0 || frac >= 1 {
		return true
	}
	rng := rand.New(rand.NewSource(algo.ClientSeed(seed, round, client) ^ 0x1a7e))
	return rng.Float64() < frac
}

// forShards partitions a sorted selection of client indices in [0,
// total) into numShards contiguous shards (algo.ShardRange; numShards
// below 1 means 1) and calls fn, in shard order, with each non-empty
// shard's selection positions [lo, hi).
func forShards(selected []int, total, numShards int, fn func(sh, lo, hi int)) {
	numShards = max(numShards, 1)
	pos := 0
	for sh := 0; sh < numShards; sh++ {
		_, shardHi := algo.ShardRange(sh, total, numShards)
		lo := pos
		for pos < len(selected) && selected[pos] < shardHi {
			pos++
		}
		if pos > lo {
			fn(sh, lo, pos)
		}
	}
}
