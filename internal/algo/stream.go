package algo

import (
	"sort"

	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// Streaming aggregation: fold-on-arrival with deterministic bounded
// staging. Buffer-then-reduce kept every decoded upload alive until
// FinishRound — O(clients × model) peak memory, and the reduce could
// not start until the last upload landed. The stream engine instead
// keeps a cursor over the round's canonical fold order (the selection,
// ascending client ID — the order the serial references replay): an
// upload arriving at the cursor folds immediately into the aggregator's
// persistent float64 accumulators and its decoded buffers are released;
// an upload arriving early parks in a bounded staging pool and drains
// in order as the cursor advances. The summation order is therefore
// fixed by client ID, not by network arrival order, so the reduction is
// bitwise identical at any GOMAXPROCS and under any arrival
// permutation — while worst-case decoded-state memory is the staging
// bound, not the client count.
//
// Two-phase scaling keeps the fold streamable: each fold accumulates
// the unscaled term wᵢ·xᵢ (Σw is unknown mid-round), and FinishRound
// finalizes with a single ÷Σw per index. Both phases run per index in
// float64, so the chain acc += wᵢ·f64(xᵢ) … f32(acc/Σw) is one fixed
// sequence of float64 operations regardless of chunking — the property
// the StreamFoldRef* serial references pin down.

// StreamingAggregator is Aggregator: every aggregator streams. The name
// stays for code written against it (the perfbench module).
type StreamingAggregator = Aggregator

// Hooks are the algorithm half of an aggregator: how one upload decodes,
// folds, releases its buffers, and how the round finalizes. The stream
// engine owns everything else — Collect, CollectLate, CollectBatch and
// FinishRound, the fold cursor and staging, drop accounting, and the
// agg.collect/agg.reduce spans and payload.up sizes.
type Hooks[U any] struct {
	// Decode validates one upload and decodes it into pooled buffers.
	// It runs concurrently inside CollectBatch, so it may touch only the
	// payload it is handed, state that is read-only during collection,
	// pooled scratch and atomic counters. ok=false discards the upload
	// and counts exactly one drop.
	Decode func(client uint32, trainSize int, payload []byte) (u U, ok bool)
	// Fold merges one decoded upload into the accumulators. Folds run on
	// the collect goroutine only, in the order the cursor dictates.
	Fold func(round int, u U)
	// Release returns an upload's pooled buffers, after its fold or when
	// the staging bound evicts it.
	Release func(u U)
	// Finalize applies the round's folded accumulators; FinishRound
	// calls it once the stream has drained.
	Finalize func(round int)
}

// stagedEntry is one parked out-of-order upload.
type stagedEntry[U any] struct {
	pos int // position in the canonical fold order
	u   U
}

// stream is the generic fold-on-arrival engine embedded by every
// aggregator, which wires its Hooks in its constructor: fold order and
// the collect front end are the engine's, the arithmetic is the
// aggregator's.
type stream[U any] struct {
	Telemetered
	hooks Hooks[U]

	order   []uint32         // canonical fold order (ascending client ID)
	arrived []bool           // position resolved: folded, staged or absent
	cursor  int              // next position owed a fold
	staged  []stagedEntry[U] // parked out-of-order uploads (unordered)
	limit   int              // staging bound; <=0 means len(order)

	dropped  telemetry.Counter // "algo.uploads_dropped": uploads Decode rejected
	inflight telemetry.Gauge   // "agg.inflight": selected uploads not yet resolved
	stagedG  telemetry.Gauge   // "agg.staged": currently parked uploads
	peak     telemetry.Counter // "agg.peak_staged": high-water mark of staged
	overflow telemetry.Counter // "agg.staged_overflow": uploads evicted at the bound
}

// SetTelemetry implements Wirer: it installs the set and exposes the
// drop counter and the engine's gauges and counters through the
// registry. Aggregators with counters of their own extend it.
func (s *stream[U]) SetTelemetry(set *telemetry.Set) {
	s.Telemetered.SetTelemetry(set)
	if set == nil || set.Reg == nil {
		return
	}
	set.Reg.Attach("algo.uploads_dropped", &s.dropped)
	set.Reg.AttachGauge("agg.inflight", &s.inflight)
	set.Reg.AttachGauge("agg.staged", &s.stagedG)
	set.Reg.Attach("agg.peak_staged", &s.peak)
	set.Reg.Attach("agg.staged_overflow", &s.overflow)
}

// Dropped reports how many malformed uploads have been discarded since
// construction — the same counter the registry exposes as
// "algo.uploads_dropped"; operators use it to tell a skewed aggregate
// from a healthy one.
func (s *stream[U]) Dropped() int64 { return s.dropped.Value() }

// BeginRound implements Aggregator. The selection is copied and sorted
// ascending — the canonical fold order.
func (s *stream[U]) BeginRound(round int, selected []uint32) {
	s.order = append(s.order[:0], selected...)
	sorted := true
	for i := 1; i < len(s.order); i++ {
		if s.order[i] < s.order[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	}
	if cap(s.arrived) < len(s.order) {
		s.arrived = make([]bool, len(s.order))
	}
	s.arrived = s.arrived[:len(s.order)]
	for i := range s.arrived {
		s.arrived[i] = false
	}
	s.cursor = 0
	s.inflight.Set(int64(len(s.order)))
	s.stagedG.Set(0)
}

// SetStagingLimit implements Aggregator.
func (s *stream[U]) SetStagingLimit(n int) { s.limit = n }

// StagingPeak reports the high-water mark of concurrently staged
// uploads — the same counter the registry exposes as "agg.peak_staged".
func (s *stream[U]) StagingPeak() int64 { return s.peak.Value() }

// StagingOverflow reports how many uploads the bounded pool evicted —
// the same counter the registry exposes as "agg.staged_overflow".
func (s *stream[U]) StagingOverflow() int64 { return s.overflow.Value() }

// Collect implements Aggregator: decode, then fold at the cursor or
// stage an early arrival. The decoded buffers are released right after
// the fold, not at FinishRound.
func (s *stream[U]) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer s.span(round, "agg.collect").End()
	if u, ok := s.decode(client, trainSize, payload); ok {
		s.ingest(round, client, u)
	}
}

// CollectLate implements Aggregator: a carried-over straggler upload
// folds at its delivery position, outside the cursor.
func (s *stream[U]) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer s.span(round, "agg.collect").End()
	if u, ok := s.decode(client, trainSize, payload); ok {
		s.foldRelease(round, u)
	}
}

// CollectBatch implements Aggregator: decode the whole batch
// concurrently on the worker pool, then ingest in upload order — the
// same folds, in the same order, as sequential Collect calls.
func (s *stream[U]) CollectBatch(round int, ups []Upload) {
	defer s.span(round, "agg.collect").End()
	us := make([]U, len(ups))
	ok := make([]bool, len(ups))
	tensor.Parallel(len(ups), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			us[i], ok[i] = s.decode(ups[i].Client, ups[i].TrainSize, ups[i].Payload)
		}
	})
	for i, up := range ups {
		if ok[i] {
			s.ingest(round, up.Client, us[i])
		}
	}
}

// FinishRound implements Aggregator: drain whatever is still staged in
// position order, then finalize.
func (s *stream[U]) FinishRound(round int) {
	defer s.span(round, "agg.reduce").End()
	s.drain(round)
	s.hooks.Finalize(round)
}

// decode observes the upload's size and decodes it, counting a
// rejected upload as one drop. Safe for concurrent use.
func (s *stream[U]) decode(client uint32, trainSize int, payload []byte) (U, bool) {
	s.size("payload.up", len(payload))
	u, ok := s.hooks.Decode(client, trainSize, payload)
	if !ok {
		s.dropped.Inc()
	}
	return u, ok
}

// MarkAbsent implements Aggregator: resolve a selected client's
// position without a fold so the cursor can pass it.
func (s *stream[U]) MarkAbsent(round int, client uint32) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.advance(round)
	}
	s.inflight.Set(int64(len(s.order) - s.cursor))
}

// find binary-searches the canonical order for a client ID.
func (s *stream[U]) find(client uint32) (int, bool) {
	pos := sort.Search(len(s.order), func(i int) bool { return s.order[i] >= client })
	return pos, pos < len(s.order) && s.order[pos] == client
}

// ingest routes one decoded upload: fold at the cursor, park early
// arrivals, fold unknown/duplicate contributors at their arrival
// position (the buffered path's append semantics for extras). While no
// selection is announced every client is unknown, so uploads fold in
// arrival order.
func (s *stream[U]) ingest(round int, client uint32, u U) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		// Not selected this round (or no selection announced), or a
		// duplicate of a resolved position: fold where it arrived —
		// extras have no slot in the canonical order.
		s.foldRelease(round, u)
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.foldRelease(round, u)
		s.cursor++
		s.advance(round)
		return
	}
	s.stage(pos, u)
	s.inflight.Set(int64(len(s.order) - s.cursor))
}

func (s *stream[U]) foldRelease(round int, u U) {
	s.hooks.Fold(round, u)
	s.hooks.Release(u)
}

// stage parks an early upload, enforcing the bound by evicting the
// entry farthest from the cursor (it has the longest wait and the least
// chance of folding before FinishRound drains everything anyway).
func (s *stream[U]) stage(pos int, u U) {
	limit := s.limit
	if limit <= 0 || limit > len(s.order) {
		limit = len(s.order)
	}
	if len(s.staged) >= limit {
		far := 0
		for i := 1; i < len(s.staged); i++ {
			if s.staged[i].pos > s.staged[far].pos {
				far = i
			}
		}
		s.overflow.Inc()
		if s.staged[far].pos > pos {
			s.hooks.Release(s.staged[far].u)
			s.staged[far] = stagedEntry[U]{pos: pos, u: u}
		} else {
			s.hooks.Release(u)
		}
		s.stagedG.Set(int64(len(s.staged)))
		return
	}
	s.staged = append(s.staged, stagedEntry[U]{pos: pos, u: u})
	s.stagedG.Set(int64(len(s.staged)))
	if n := int64(len(s.staged)); n > s.peak.Value() {
		s.peak.Add(n - s.peak.Value())
	}
}

// advance folds staged uploads in position order for as long as every
// position at the cursor is resolved. An absent position has no staged
// entry, so the cursor just passes it.
func (s *stream[U]) advance(round int) {
	for s.cursor < len(s.order) && s.arrived[s.cursor] {
		for i := range s.staged {
			if s.staged[i].pos == s.cursor {
				s.foldRelease(round, s.staged[i].u)
				last := len(s.staged) - 1
				s.staged[i] = s.staged[last]
				s.staged[last] = stagedEntry[U]{}
				s.staged = s.staged[:last]
				break
			}
		}
		s.cursor++
	}
	s.inflight.Set(int64(len(s.order) - s.cursor))
	s.stagedG.Set(int64(len(s.staged)))
}

// drain folds whatever is still parked — uploads whose predecessors
// never arrived — in position order, then resets the round state.
func (s *stream[U]) drain(round int) {
	if len(s.staged) > 0 {
		sort.Slice(s.staged, func(i, j int) bool { return s.staged[i].pos < s.staged[j].pos })
		for i := range s.staged {
			s.foldRelease(round, s.staged[i].u)
			s.staged[i] = stagedEntry[U]{}
		}
		s.staged = s.staged[:0]
	}
	s.order = s.order[:0]
	s.cursor = 0
	s.inflight.Set(0)
	s.stagedG.Set(0)
}

// Interface conformance of the five in-package cores (the sixth,
// hetero.Aggregator, embeds Stream).
var (
	_ Aggregator = (*FedAvgAggregator)(nil)
	_ Aggregator = (*FedNovaAggregator)(nil)
	_ Aggregator = (*SCAFFOLDAggregator)(nil)
	_ Aggregator = (*SPATLAggregator)(nil)
	_ Aggregator = (*SSFLAggregator)(nil)
)
