package algo

import (
	"spatl/internal/comm"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
)

// Stream exports the fold-on-arrival engine for aggregators built
// outside this package (internal/hetero). Embedding a Stream gives an
// aggregator the whole collect surface of Aggregator — BeginRound,
// Collect, CollectLate, CollectBatch, MarkAbsent, SetStagingLimit and
// FinishRound — plus Dropped, the staging counters and the telemetry
// hooks (SetTelemetry, RoundSpan, ObserveSize); the aggregator supplies
// only its Hooks, through Init. The determinism contract is identical
// to the in-package aggregators': fold order is the canonical ascending
// client-ID order whatever the arrival permutation, so a per-index
// float64 fold chain is bitwise reproducible at any GOMAXPROCS.
type Stream[U any] struct {
	stream[U]
}

// Init wires the aggregator's hooks. Call once, from the constructor,
// before the first round.
func (s *Stream[U]) Init(h Hooks[U]) { s.hooks = h }

// RoundSpan starts a span under the round's trace ID (round+1) — the
// span helper the in-package cores use, promoted for cores built
// outside this package. Nil-safe when no telemetry is installed.
func (t *Telemetered) RoundSpan(round int, name string) *telemetry.Span {
	return t.span(round, name)
}

// ObserveSize observes a payload size histogram ("payload.up",
// "payload.down"). Nil-safe when no telemetry is installed.
func (t *Telemetered) ObserveSize(name string, n int) { t.size(name, n) }

// ZeroGradRangesHook returns a LocalOpts hook zeroing the gradient
// entries covered by ranges over the flattened ctrlP parameters — the
// mask-static mechanism (see SSFLTrainer) exported for slice-training
// cores outside this package: weights outside the trained slice take no
// optimizer step, so they hold whatever value the slice installer wrote
// (exact zero for SSFL's pruned channels, the broadcast value for a
// width-sliced hetero client).
func ZeroGradRangesHook(ranges []comm.Range, ctrlP []*nn.Param) func(params []*nn.Param) {
	return zeroGradRanges(ranges, ctrlP)
}
