package algo

import (
	"slices"
	"time"

	"spatl/internal/telemetry"
)

// Round is the one round state machine every transport drives. A
// federation round is the same protocol whatever carries it: the
// transport broadcasts, delivers each selected client's outcome, and
// closes the round by its own rule (all resolved, quorum K, on-time
// fraction, deadline). Everything between Broadcast and round_end —
// the aggregator's streaming calls and every journal event — lives
// here, so the in-process simulator, the massive synthetic federation,
// the flat TCP server and the tree root cannot drift apart.
//
// A transport keeps only its delivery (how payloads move) and its close
// rule (when the round ends):
//
//	r.Begin(round, sel, len(payload))    // after Broadcast
//	r.Late(u)                            // a straggler from an earlier round
//	r.Collect(pos, payload, dur)         // a selected position's upload
//	r.Drop(pos) / r.Straggler(pos) / r.Defer(pos)
//	r.Shard(sh, lo, hi, pooled, durs)    // a pooled shard payload
//	r.ShardDrop(sh, lo, hi)              // a whole shard lost
//	r.MetQuorum()                        // the round closed at quorum
//	r.Finish(up, down)                   // FinishRound, aggregate, round_end
//
// Aggregator calls happen when the transport delivers — Collect on
// arrival, CollectLate at delivery, MarkAbsent the moment a position is
// known not to deliver this round, CollectBatch once per pooled shard — so
// uploads fold on arrival and the call sequence is the transport's.
// Journal events are canonical whatever the arrival order:
//
//  1. round_start;
//  2. late_upload, in delivery order;
//  3. per selection position its client_upload, drop or straggler (a
//     deferred or unresolved position emits nothing), with each shard's
//     shard_push or shard_drop after its last position;
//  4. quorum_reached, when the round closed at quorum;
//  5. aggregate;
//  6. round_end.
//
// A Round is reused across rounds and is not safe for concurrent use:
// transports call it from their sequential round loop only.
type Round struct {
	agg Aggregator
	tel *telemetry.Set

	round   int
	sel     []Upload // the selection: client and train size per position
	ids     []uint32
	pos     []position
	shards  []shardEvent
	entries []Upload // decode scratch for pooled shard payloads
	start   time.Time
	folded  int
	onTime  int
	quorum  bool
}

// outcome is what became of one selection position this round.
type outcome uint8

const (
	unresolved outcome = iota // still owed at close: deferred, emits nothing
	uploaded                  // contribution collected
	dropped                   // lost: crash, I/O or protocol error
	straggled                 // missed the straggler deadline
	deferred                  // arrives in a later round, folds late
	shardLost                 // covered by its shard's shard_drop
)

type position struct {
	out   outcome
	bytes int64
	dur   int64
}

// shardEvent is a shard_push or shard_drop, emitted after the shard's
// last selection position.
type shardEvent struct {
	ev   telemetry.Event
	last int
}

// NewRound binds a round state machine to an aggregator and the
// telemetry set its journal events go to (nil disables them).
func NewRound(agg Aggregator, tel *telemetry.Set) *Round {
	return &Round{agg: agg, tel: tel}
}

// Begin opens a round after the transport's Broadcast: it announces the
// selection to the aggregator and journals round_start. sel lists the
// selected clients in selection order (Payload unused); positions below
// index into it, and it must stay unchanged until Finish.
func (r *Round) Begin(round int, sel []Upload, bcastBytes int) {
	r.round, r.sel = round, sel
	r.ids = r.ids[:0]
	for _, u := range sel {
		r.ids = append(r.ids, u.Client)
	}
	r.pos = slices.Grow(r.pos[:0], len(sel))[:len(sel)]
	clear(r.pos)
	r.shards = r.shards[:0]
	r.folded, r.onTime, r.quorum = 0, 0, false
	r.agg.BeginRound(round, r.ids)
	r.tel.Emit(telemetry.RoundStart(round, len(sel), int64(bcastBytes)))
	r.start = time.Now()
}

// Elapsed is the time since Begin, the duration TCP transports journal
// with an upload.
func (r *Round) Elapsed() int64 { return time.Since(r.start).Nanoseconds() }

// Collect folds the upload of selection position pos. durNS is the
// duration journaled with its client_upload.
func (r *Round) Collect(pos int, payload []byte, durNS int64) {
	u := r.sel[pos]
	r.agg.Collect(r.round, u.Client, u.TrainSize, payload)
	r.pos[pos] = position{out: uploaded, bytes: int64(len(payload)), dur: durNS}
	r.folded++
	r.onTime++
}

// Late folds an upload computed for an earlier round into this one at
// its delivery position (CollectLate) and journals late_upload.
func (r *Round) Late(u Upload) {
	r.agg.CollectLate(r.round, u.Client, u.TrainSize, u.Payload)
	r.tel.Emit(telemetry.LateUpload(r.round, int(u.Client), int64(len(u.Payload))))
	r.folded++
}

// Drop records that position pos will not deliver: it crashed, or its
// connection failed or broke protocol.
func (r *Round) Drop(pos int) { r.absent(pos, dropped) }

// Straggler records that position pos missed the straggler deadline.
func (r *Round) Straggler(pos int) { r.absent(pos, straggled) }

// Defer records that position pos's upload misses this round's close
// and will be delivered to a later round through Late.
func (r *Round) Defer(pos int) { r.absent(pos, deferred) }

func (r *Round) absent(pos int, out outcome) {
	r.agg.MarkAbsent(r.round, r.sel[pos].Client)
	r.pos[pos].out = out
}

// Shard delivers one pooled shard payload (ShardBuffer wire format)
// covering selection positions [lo, hi), hi > lo. Its entries are matched in
// order against the positions still unresolved; matched entries take
// the selection's train size and fold in one CollectBatch, and every
// unmatched position is dropped. durNS, indexed by selection position,
// gives the durations journaled with the uploads; nil journals the time
// since Begin. Returns the matched payload bytes, the positions dropped,
// and the faults seen: a malformed payload and entries matching no
// position count one each.
func (r *Round) Shard(sh, lo, hi int, pooled []byte, durNS []int64) (up int64, drops, faults int) {
	entries, err := ShardEntries(r.entries[:0], pooled)
	if err != nil {
		faults++
	}
	now := r.Elapsed()
	kept := entries[:0]
	ei := 0
	for p := lo; p < hi; p++ {
		if r.pos[p].out != unresolved {
			continue
		}
		sel := r.sel[p]
		if ei == len(entries) || entries[ei].Client != sel.Client {
			r.Drop(p)
			drops++
			continue
		}
		e := entries[ei]
		ei++
		e.TrainSize = sel.TrainSize // the selection is authoritative
		kept = append(kept, e)
		dur := now
		if durNS != nil {
			dur = durNS[p]
		}
		r.pos[p] = position{out: uploaded, bytes: int64(len(e.Payload)), dur: dur}
		up += int64(len(e.Payload))
	}
	if ei != len(entries) {
		faults++
	}
	r.shards = append(r.shards, shardEvent{telemetry.ShardPush(r.round, sh, len(kept), int64(len(pooled))), hi - 1})
	if len(kept) > 0 {
		r.agg.CollectBatch(r.round, kept)
	}
	r.folded += len(kept)
	r.onTime += len(kept)
	clear(kept) // the payloads alias pooled, which the caller recycles
	r.entries = kept[:0]
	return up, drops, faults
}

// ShardDrop records that shard sh, covering selection positions
// [lo, hi), delivered nothing: every position is absent and the shard
// journals one shard_drop instead of per-client events.
func (r *Round) ShardDrop(sh, lo, hi int) {
	for p := lo; p < hi; p++ {
		r.absent(p, shardLost)
	}
	r.shards = append(r.shards, shardEvent{telemetry.ShardDrop(r.round, sh, hi-lo), hi - 1})
}

// MetQuorum records that the round closed at quorum, journaled as
// quorum_reached with the count of on-time uploads.
func (r *Round) MetQuorum() { r.quorum = true }

// Folded reports how many uploads this round handed the aggregator,
// on-time and late.
func (r *Round) Folded() int { return r.folded }

// Finish closes the round: it journals the per-position events in
// selection order, folds the round (FinishRound) and journals aggregate
// and round_end. up and down are the transport's cumulative payload
// traffic, including this round.
func (r *Round) Finish(up, down int64) {
	if r.tel != nil {
		si := 0
		for p, st := range r.pos {
			client := int(r.sel[p].Client)
			switch st.out {
			case uploaded:
				r.tel.Emit(telemetry.ClientUpload(r.round, client, st.bytes, st.dur))
			case dropped:
				r.tel.Emit(telemetry.Drop(r.round, client))
			case straggled:
				r.tel.Emit(telemetry.Straggler(r.round, client))
			}
			for si < len(r.shards) && r.shards[si].last == p {
				r.tel.Emit(r.shards[si].ev)
				si++
			}
		}
		if r.quorum {
			r.tel.Emit(telemetry.Quorum(r.round, r.onTime))
		}
	}
	t0 := time.Now()
	r.agg.FinishRound(r.round)
	r.tel.Emit(telemetry.Aggregate(r.round, r.folded, time.Since(t0).Nanoseconds()))
	r.tel.Emit(telemetry.RoundEnd(r.round, up, down))
}
