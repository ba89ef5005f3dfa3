package algo

import (
	"math/rand"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// TestDropAccountingEveryPath sends one good and one malformed upload
// through each collect path of every aggregator in this package. The
// malformed one must add exactly one to Dropped() and to the registry's
// "algo.uploads_dropped" (the same counter), and "payload.up" must
// observe both uploads, the dropped one included.
func TestDropAccountingEveryPath(t *testing.T) {
	cases := shardCases(t)
	cases = append(cases, shardCase{
		name: "ssfl",
		agg: func() Aggregator {
			return NewSSFLAggregator(models.Build(ssflSpec, 5), SSFLOptions{}, Config{NumClients: 2})
		},
		upload: func(i int) []byte {
			rng := rand.New(rand.NewSource(int64(800 + i)))
			scores := make([]float32, ssflScoreLen(models.Build(ssflSpec, 5)))
			for j := range scores {
				scores[j] = float32(rng.Float64())
			}
			return comm.EncodeDense(scores)
		},
	})
	bad := []byte{0xde, 0xad, 0xbe}
	paths := []struct {
		name    string
		deliver func(agg Aggregator, ups []Upload)
	}{
		{"Collect", func(agg Aggregator, ups []Upload) {
			for _, u := range ups {
				agg.Collect(0, u.Client, u.TrainSize, u.Payload)
			}
		}},
		{"CollectLate", func(agg Aggregator, ups []Upload) {
			for _, u := range ups {
				agg.CollectLate(0, u.Client, u.TrainSize, u.Payload)
			}
		}},
		{"CollectBatch", func(agg Aggregator, ups []Upload) { agg.CollectBatch(0, ups) }},
	}
	for _, tc := range cases {
		for _, path := range paths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				agg := tc.agg()
				tel := telemetry.New(nil)
				Wire(tel, agg)
				ups := []Upload{
					{Client: 0, TrainSize: 10, Payload: tc.upload(0)},
					{Client: 1, TrainSize: 10, Payload: bad},
				}
				agg.BeginRound(0, []uint32{0, 1})
				path.deliver(agg, ups)
				agg.FinishRound(0)

				if d := agg.(interface{ Dropped() int64 }).Dropped(); d != 1 {
					t.Errorf("Dropped() = %d, want 1", d)
				}
				if d := tel.Reg.Counter("algo.uploads_dropped").Value(); d != 1 {
					t.Errorf("algo.uploads_dropped = %d, want 1", d)
				}
				if n := tel.Reg.Histogram("payload.up", nil).Count(); n != int64(len(ups)) {
					t.Errorf("payload.up observed %d uploads, want %d", n, len(ups))
				}
			})
		}
	}
}
