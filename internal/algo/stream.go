package algo

import (
	"sort"

	"spatl/internal/telemetry"
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

// stagedEntry is one parked out-of-order upload.
type stagedEntry[U any] struct {
	pos int // position in the canonical fold order
	u   U
}

// stream is the generic fold-on-arrival engine embedded by every
// aggregator. The embedding aggregator wires foldFn/releaseFn in its
// constructor; fold order is the engine's contract, the arithmetic is
// the aggregator's.
type stream[U any] struct {
	foldFn    func(U) // fold one decoded upload into the accumulators
	releaseFn func(U) // return the upload's pooled buffers

	order   []uint32         // canonical fold order (ascending client ID)
	arrived []bool           // position resolved: folded, staged or absent
	cursor  int              // next position owed a fold
	staged  []stagedEntry[U] // parked out-of-order uploads (unordered)
	limit   int              // staging bound; <=0 means len(order)

	inflight telemetry.Gauge   // "agg.inflight": selected uploads not yet resolved
	stagedG  telemetry.Gauge   // "agg.staged": currently parked uploads
	peak     telemetry.Counter // "agg.peak_staged": high-water mark of staged
	overflow telemetry.Counter // "agg.staged_overflow": uploads evicted at the bound
}

// wireStream exposes the engine's gauges and counters through the
// registry; called from each aggregator's SetTelemetry.
func (s *stream[U]) wireStream(reg *telemetry.Registry) {
	reg.AttachGauge("agg.inflight", &s.inflight)
	reg.AttachGauge("agg.staged", &s.stagedG)
	reg.Attach("agg.peak_staged", &s.peak)
	reg.Attach("agg.staged_overflow", &s.overflow)
}

// BeginRound implements Aggregator (promoted). The selection
// is copied and sorted ascending — the canonical fold order.
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

// SetStagingLimit implements Aggregator (promoted).
func (s *stream[U]) SetStagingLimit(n int) { s.limit = n }

// StagingPeak reports the high-water mark of concurrently staged
// uploads — the same counter the registry exposes as "agg.peak_staged".
func (s *stream[U]) StagingPeak() int64 { return s.peak.Value() }

// StagingOverflow reports how many uploads the bounded pool evicted —
// the same counter the registry exposes as "agg.staged_overflow".
func (s *stream[U]) StagingOverflow() int64 { return s.overflow.Value() }

// MarkAbsent implements Aggregator (promoted): resolve a
// selected client's position without a fold so the cursor can pass it.
func (s *stream[U]) MarkAbsent(round int, client uint32) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.advance()
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
func (s *stream[U]) ingest(client uint32, u U) {
	pos, ok := s.find(client)
	if !ok || s.arrived[pos] {
		// Not selected this round (or no selection announced), or a
		// duplicate of a resolved position: fold where it arrived —
		// extras have no slot in the canonical order.
		s.foldRelease(u)
		return
	}
	s.arrived[pos] = true
	if pos == s.cursor {
		s.foldRelease(u)
		s.cursor++
		s.advance()
		return
	}
	s.stage(pos, u)
	s.inflight.Set(int64(len(s.order) - s.cursor))
}

// foldNow folds an upload immediately, outside the cursor discipline —
// the CollectLate path.
func (s *stream[U]) foldNow(u U) { s.foldRelease(u) }

func (s *stream[U]) foldRelease(u U) {
	s.foldFn(u)
	s.releaseFn(u)
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
			s.releaseFn(s.staged[far].u)
			s.staged[far] = stagedEntry[U]{pos: pos, u: u}
		} else {
			s.releaseFn(u)
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
// position at the cursor is resolved.
func (s *stream[U]) advance() {
	for s.cursor < len(s.order) && s.arrived[s.cursor] {
		found := false
		for i := range s.staged {
			if s.staged[i].pos == s.cursor {
				s.foldRelease(s.staged[i].u)
				last := len(s.staged) - 1
				s.staged[i] = s.staged[last]
				s.staged[last] = stagedEntry[U]{}
				s.staged = s.staged[:last]
				found = true
				break
			}
		}
		_ = found // absent positions have no staged entry: nothing to fold
		s.cursor++
	}
	s.inflight.Set(int64(len(s.order) - s.cursor))
	s.stagedG.Set(int64(len(s.staged)))
}

// finishStream drains whatever is still parked — uploads whose
// predecessors never arrived — in position order, then resets the round
// state. Called at the top of every FinishRound, before finalization.
func (s *stream[U]) finishStream() {
	if len(s.staged) > 0 {
		sort.Slice(s.staged, func(i, j int) bool { return s.staged[i].pos < s.staged[j].pos })
		for i := range s.staged {
			s.foldRelease(s.staged[i].u)
			s.staged[i] = stagedEntry[U]{}
		}
		s.staged = s.staged[:0]
	}
	s.order = s.order[:0]
	s.cursor = 0
	s.inflight.Set(0)
	s.stagedG.Set(0)
}

// Interface conformance: all six algorithm cores stream.
var (
	_ Aggregator = (*FedAvgAggregator)(nil)
	_ Aggregator = (*FedNovaAggregator)(nil)
	_ Aggregator = (*SCAFFOLDAggregator)(nil)
	_ Aggregator = (*SPATLAggregator)(nil)
	_ Aggregator = (*SSFLAggregator)(nil)
)
