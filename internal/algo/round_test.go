package algo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"spatl/internal/telemetry"
)

// callLog is a stub aggregator recording every call it receives.
type callLog struct{ calls []string }

func (a *callLog) log(format string, args ...any) {
	a.calls = append(a.calls, fmt.Sprintf(format, args...))
}

func (a *callLog) Broadcast(round int) []byte { return nil }
func (a *callLog) BeginRound(round int, selected []uint32) {
	a.log("BeginRound %v", selected)
}
func (a *callLog) Collect(round int, client uint32, trainSize int, payload []byte) {
	a.log("Collect %d/%d", client, trainSize)
}
func (a *callLog) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	a.log("CollectLate %d/%d", client, trainSize)
}
func (a *callLog) CollectBatch(round int, ups []Upload) {
	ids := make([]uint32, len(ups))
	for i, u := range ups {
		ids[i] = u.Client
	}
	a.log("CollectBatch %v", ids)
}
func (a *callLog) MarkAbsent(round int, client uint32) { a.log("MarkAbsent %d", client) }
func (a *callLog) SetStagingLimit(n int)               {}
func (a *callLog) FinishRound(round int)               { a.log("FinishRound") }
func (a *callLog) Final() []byte                       { return nil }

// TestRoundCanonicalOrder drives the round state machine through each
// kind of delivery in a scrambled order and checks the exact journal
// (canonical order whatever the delivery order) and the exact
// aggregator calls (the delivery order).
func TestRoundCanonicalOrder(t *testing.T) {
	selection := func(ids ...uint32) []Upload {
		sel := make([]Upload, len(ids))
		for i, id := range ids {
			sel[i] = Upload{Client: id, TrainSize: 10 * int(id)}
		}
		return sel
	}
	pooled := func(ids ...uint32) []byte {
		var sb ShardBuffer
		for _, id := range ids {
			sb.Add(id, 0, []byte{1, 2, 3})
		}
		return sb.Payload()
	}
	for _, tc := range []struct {
		name   string
		sel    []Upload
		drive  func(r *Round)
		events []string
		calls  []string
	}{{
		name: "quorum with late uploads, arrivals out of order and a deferral",
		sel:  selection(3, 5, 7, 9),
		drive: func(r *Round) {
			r.Late(Upload{Client: 11, TrainSize: 4, Payload: make([]byte, 6)})
			r.Collect(2, make([]byte, 8), 0)
			r.Late(Upload{Client: 5, TrainSize: 4, Payload: make([]byte, 6)})
			r.Collect(0, make([]byte, 8), 0)
			r.Defer(1)
			r.Drop(3)
			r.MetQuorum()
		},
		events: []string{
			"round_start -1 n=4 bytes=100",
			"late_upload 11 n=0 bytes=6",
			"late_upload 5 n=0 bytes=6",
			"client_upload 3 n=0 bytes=8",
			"client_upload 7 n=0 bytes=8",
			"drop 9 n=0 bytes=0",
			"quorum_reached -1 n=2 bytes=0",
			"aggregate -1 n=4 bytes=0",
			"round_end -1 n=0 bytes=0",
		},
		calls: []string{
			"BeginRound [3 5 7 9]",
			"CollectLate 11/4",
			"Collect 7/70",
			"CollectLate 5/4",
			"Collect 3/30",
			"MarkAbsent 5",
			"MarkAbsent 9",
			"FinishRound",
		},
	}, {
		name: "shard push with a missing entry, then a shard drop",
		sel:  selection(0, 1, 2, 3, 4, 5),
		drive: func(r *Round) {
			r.Shard(0, 0, 3, pooled(0, 2), nil)
			r.ShardDrop(1, 3, 6)
		},
		events: []string{
			"round_start -1 n=6 bytes=100",
			"client_upload 0 n=0 bytes=3",
			"drop 1 n=0 bytes=0",
			"client_upload 2 n=0 bytes=3",
			"shard_push 0 n=2 bytes=30",
			"shard_drop 1 n=3 bytes=0",
			"aggregate -1 n=2 bytes=0",
			"round_end -1 n=0 bytes=0",
		},
		calls: []string{
			"BeginRound [0 1 2 3 4 5]",
			"MarkAbsent 1",
			"CollectBatch [0 2]",
			"MarkAbsent 3",
			"MarkAbsent 4",
			"MarkAbsent 5",
			"FinishRound",
		},
	}, {
		name: "straggler, and a position still owed at close",
		sel:  selection(1, 2, 3),
		drive: func(r *Round) {
			r.Collect(2, make([]byte, 5), 0)
			r.Straggler(0)
		},
		events: []string{
			"round_start -1 n=3 bytes=100",
			"straggler_timeout 1 n=0 bytes=0",
			"client_upload 3 n=0 bytes=5",
			"aggregate -1 n=1 bytes=0",
			"round_end -1 n=0 bytes=0",
		},
		calls: []string{
			"BeginRound [1 2 3]",
			"Collect 3/30",
			"MarkAbsent 1",
			"FinishRound",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var journal bytes.Buffer
			tel := telemetry.New(&journal)
			tel.Journal.SetZeroTime(true)
			agg := &callLog{}
			r := NewRound(agg, tel)
			r.Begin(0, tc.sel, 100)
			tc.drive(r)
			r.Finish(0, 0)
			if err := tel.Journal.Flush(); err != nil {
				t.Fatal(err)
			}
			var events []string
			for _, line := range bytes.Split(bytes.TrimSpace(journal.Bytes()), []byte("\n")) {
				var ev telemetry.Event
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatal(err)
				}
				events = append(events, fmt.Sprintf("%s %d n=%d bytes=%d", ev.Ev, ev.Client, ev.N, ev.Bytes))
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Errorf("events:\n got %q\nwant %q", events, tc.events)
			}
			if !reflect.DeepEqual(agg.calls, tc.calls) {
				t.Errorf("aggregator calls:\n got %q\nwant %q", agg.calls, tc.calls)
			}
		})
	}
}
