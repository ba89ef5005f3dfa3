package main

import (
	"fmt"
	"sync"
	"time"

	"spatl/internal/algo"
	"spatl/internal/telemetry"
)

// The benchmark measures the program from outside: it wraps the
// algorithm cores a transport drives and times each call. A wrapper
// must keep the transport on its normal code path, so it forwards every
// optional interface the transports type-assert for:
//
//   - algo.StreamingAggregator (BeginRound, MarkAbsent, CollectLate,
//     SetStagingLimit): without it flnet's runSync buffers whole frames
//     and fl.Sim folds in the legacy arrival-order mode;
//   - algo.BatchCollector (CollectBatch): without it the tree root
//     loses its parallel batch decode;
//   - algo.Wirer (SetTelemetry) and Dropped, so telemetry and drop
//     accounting reach the real core.
//
// wrap_test.go checks that a wrapped federation's zero-time journal is
// byte-identical to the unwrapped one on the sim, TCP and tree paths.

// aggCore is what every aggregator in internal/algo implements.
type aggCore interface {
	algo.StreamingAggregator
	algo.BatchCollector
	algo.Wirer
	Dropped() int64
}

// trainerCore is what every trainer in internal/algo implements.
type trainerCore interface {
	algo.Trainer
	algo.Wirer
}

// The wrappers forward everything the cores they wrap implement.
var (
	_ aggCore     = (*timedAgg)(nil)
	_ trainerCore = (*timedTrainer)(nil)
)

// span is one timed call into a core, in nanoseconds since the
// recorder's epoch. Client is -1 for calls not scoped to one client.
type span struct {
	Name   string
	Round  int
	Client int
	Start  int64
	End    int64
	N      int // uploads in a batch, or payload bytes
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory; they are written out when the
// benchmark exits. Trainers record from several goroutines at once.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// roundStat is one round as the aggregator wrapper saw it. Every
// transport calls Broadcast first and FinishRound last in a round, so
// [Start, End] is the round's span on any transport.
type roundStat struct {
	Start, BcastEnd, End int64
	FirstCollect         int64 // 0 when nothing was collected
	Selected             int
	Absent               int
	Uploads              int
	BcastBytes           int64
	UpBytes              int64
	Samples              int64 // Σ train size of collected uploads
	MaxFrame             int64 // largest single upload or pooled shard payload
}

func (r roundStat) seconds() float64 { return float64(r.End-r.Start) / 1e9 }

// timedAgg wraps an aggregator. Untraced it records only round
// boundaries and byte counts; traced it also records a span per call
// and keeps a few uploads for the decode replay.
type timedAgg struct {
	inner  aggCore
	clock  *recorder
	traced bool
	// after runs once a round's FinishRound has returned, outside the
	// round span: evaluation and target checks live here.
	after func(round int)

	rounds     []roundStat
	finalBytes int64
	captured   [][]byte
}

// maxCaptured bounds the uploads kept for the decode replay.
const maxCaptured = 8

func wrapAgg(agg algo.Aggregator, clock *recorder, traced bool) (*timedAgg, error) {
	c, ok := agg.(aggCore)
	if !ok {
		return nil, fmt.Errorf("aggregator %T lacks the streaming, batch or telemetry interfaces", agg)
	}
	return &timedAgg{inner: c, clock: clock, traced: traced}, nil
}

// upBytes is the total uplink payload the wrapper saw.
func (a *timedAgg) upBytes() int64 {
	var n int64
	for _, r := range a.rounds {
		n += r.UpBytes
	}
	return n
}

func (a *timedAgg) cur() *roundStat { return &a.rounds[len(a.rounds)-1] }

func (a *timedAgg) record(name string, round, client int, t0, t1 int64, n int) {
	if a.traced {
		a.clock.add(span{Name: name, Round: round, Client: client, Start: t0, End: t1, N: n})
	}
}

func (a *timedAgg) Broadcast(round int) []byte {
	t0 := a.clock.now()
	p := a.inner.Broadcast(round)
	t1 := a.clock.now()
	a.rounds = append(a.rounds, roundStat{Start: t0, BcastEnd: t1, BcastBytes: int64(len(p))})
	a.record("agg.broadcast", round, -1, t0, t1, len(p))
	return p
}

func (a *timedAgg) BeginRound(round int, selected []uint32) {
	a.cur().Selected = len(selected)
	a.inner.BeginRound(round, selected)
}

func (a *timedAgg) noteUpload(payload []byte, trainSize int, t0 int64) {
	r := a.cur()
	if r.FirstCollect == 0 {
		r.FirstCollect = t0
	}
	r.Uploads++
	r.UpBytes += int64(len(payload))
	r.Samples += int64(trainSize)
	r.MaxFrame = max(r.MaxFrame, int64(len(payload)))
	if a.traced && len(a.captured) < maxCaptured {
		a.captured = append(a.captured, append([]byte(nil), payload...))
	}
}

func (a *timedAgg) Collect(round int, client uint32, trainSize int, payload []byte) {
	t0 := a.clock.now()
	a.inner.Collect(round, client, trainSize, payload)
	t1 := a.clock.now()
	a.noteUpload(payload, trainSize, t0)
	a.record("agg.collect", round, int(client), t0, t1, len(payload))
}

func (a *timedAgg) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	t0 := a.clock.now()
	a.inner.CollectLate(round, client, trainSize, payload)
	t1 := a.clock.now()
	a.noteUpload(payload, trainSize, t0)
	a.record("agg.collect", round, int(client), t0, t1, len(payload))
}

// shardEntryHeader is the per-entry overhead of algo.ShardBuffer's
// pooled wire format (client ID, train size, payload length).
const shardEntryHeader = 12

func (a *timedAgg) CollectBatch(round int, ups []algo.Upload) {
	t0 := a.clock.now()
	a.inner.CollectBatch(round, ups)
	t1 := a.clock.now()
	var frame int64
	for _, u := range ups {
		a.noteUpload(u.Payload, u.TrainSize, t0)
		frame += shardEntryHeader + int64(len(u.Payload))
	}
	r := a.cur()
	r.MaxFrame = max(r.MaxFrame, frame)
	a.record("agg.collect", round, -1, t0, t1, len(ups))
}

func (a *timedAgg) MarkAbsent(round int, client uint32) {
	a.cur().Absent++
	a.inner.MarkAbsent(round, client)
}

func (a *timedAgg) SetStagingLimit(n int) { a.inner.SetStagingLimit(n) }

func (a *timedAgg) FinishRound(round int) {
	t0 := a.clock.now()
	a.inner.FinishRound(round)
	t1 := a.clock.now()
	a.cur().End = t1
	a.record("agg.finish", round, -1, t0, t1, 0)
	if a.after != nil {
		a.after(round)
	}
}

func (a *timedAgg) Final() []byte {
	p := a.inner.Final()
	a.finalBytes = int64(len(p))
	return p
}

func (a *timedAgg) SetTelemetry(s *telemetry.Set) { a.inner.SetTelemetry(s) }

func (a *timedAgg) Dropped() int64 { return a.inner.Dropped() }

// timedTrainer wraps a trainer in traced runs, recording each
// LocalUpdate as a span.
type timedTrainer struct {
	inner trainerCore
	id    int
	clock *recorder
}

func wrapTrainer(tr algo.Trainer, id int, clock *recorder) (*timedTrainer, error) {
	c, ok := tr.(trainerCore)
	if !ok {
		return nil, fmt.Errorf("trainer %T lacks the telemetry interface", tr)
	}
	return &timedTrainer{inner: c, id: id, clock: clock}, nil
}

// wrapTrainers replaces each trainer with its timing wrapper; the
// wrapper's client ID is the trainer's index.
func wrapTrainers(trainers []algo.Trainer, clock *recorder) error {
	for i, tr := range trainers {
		w, err := wrapTrainer(tr, i, clock)
		if err != nil {
			return err
		}
		trainers[i] = w
	}
	return nil
}

func (t *timedTrainer) LocalUpdate(round int, payload []byte) []byte {
	t0 := t.clock.now()
	up := t.inner.LocalUpdate(round, payload)
	t1 := t.clock.now()
	t.clock.add(span{Name: "client.update", Round: round, Client: t.id, Start: t0, End: t1, N: len(up)})
	return up
}

func (t *timedTrainer) Finish(payload []byte) { t.inner.Finish(payload) }

func (t *timedTrainer) SetTelemetry(s *telemetry.Set) { t.inner.SetTelemetry(s) }
