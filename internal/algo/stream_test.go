package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// The streaming contract under test: whatever order uploads arrive in —
// and whatever GOMAXPROCS the folds run at — the round's reduction is
// bitwise identical to the serial StreamFoldRef ground truth, because
// the cursor/staging engine replays arrivals in canonical ascending
// client order. Every aggregator family gets the same permutation
// driver; the fixtures only differ in payload encoding and reference.

// streamFixture is one aggregator wired with a round's worth of uploads
// and a bitwise check against the serial reference.
type streamFixture struct {
	agg      Aggregator
	round    int
	ids      []uint32
	sizes    []int
	payloads [][]byte
	check    func(t *testing.T)
}

// bitEq fails the test at the first float32 that differs bitwise.
func bitEq(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s[%d] differs bitwise: %x vs %x", label, j,
				math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

var streamIDs = []uint32{3, 11, 12, 20, 41, 57}

func streamSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 50 + 10*i
	}
	return sizes
}

func randStates(rng *rand.Rand, k, n int) [][]float32 {
	states := make([][]float32, k)
	for i := range states {
		st := make([]float32, n)
		for j := range st {
			st[j] = float32(rng.NormFloat64())
		}
		states[i] = st
	}
	return states
}

func fedavgFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewFedAvgAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	states := randStates(rng, k, n)
	sizes := streamSizes(k)
	weights := make([]float64, k)
	payloads := make([][]byte, k)
	for i := range states {
		weights[i] = float64(sizes[i])
		payloads[i] = comm.EncodeDense(states[i])
	}
	want := StreamFoldRefFedAvg(states, weights)
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) { bitEq(t, "state", global.State(models.ScopeAll), want) },
	}
}

func fednovaFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewFedNovaAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	nVel := nn.ParamCount(global.Params())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	ds := randStates(rng, k, n)
	vs := randStates(rng, k, nVel)
	sizes := streamSizes(k)
	weights := make([]float64, k)
	taus := make([]float64, k)
	payloads := make([][]byte, k)
	for i := range ds {
		weights[i] = float64(sizes[i])
		steps := uint32(2 + i)
		taus[i] = float64(steps)
		var sb [4]byte
		binary.LittleEndian.PutUint32(sb[:], steps)
		payloads[i] = comm.JoinPayloads(comm.EncodeDense(ds[i]), comm.EncodeDense(vs[i]), sb[:])
	}
	wantState, wantVel := StreamFoldRefFedNova(global.State(models.ScopeAll), ds, vs, taus, weights)
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeAll), wantState)
			bitEq(t, "velocity", agg.velocity, wantVel)
		},
	}
}

func scaffoldFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewSCAFFOLDAggregator(global, Config{NumClients: 64})
	n := global.StateLen(models.ScopeAll)
	nCtrl := nn.ParamCount(global.Params())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	dWs := randStates(rng, k, n)
	dCs := randStates(rng, k, nCtrl)
	sizes := streamSizes(k)
	payloads := make([][]byte, k)
	for i := range dWs {
		payloads[i] = comm.JoinPayloads(comm.EncodeDense(dWs[i]), comm.EncodeDense(dCs[i]))
	}
	wantState, wantC := StreamFoldRefSCAFFOLD(global.State(models.ScopeAll), agg.c, dWs, dCs, 64)
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeAll), wantState)
			bitEq(t, "c", agg.c, wantC)
		},
	}
}

func spatlFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	const clients = 64
	agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: clients})
	n := global.StateLen(models.ScopeEncoder)
	nCtrl := nn.ParamCount(global.EncoderParams())
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)
	dWs := make([]*comm.Sparse, k)
	dCs := make([]*comm.Sparse, k)
	payloads := make([][]byte, k)
	for i := range dWs {
		dWs[i] = synthSparse(rng, n)
		dCs[i] = synthSparse(rng, nCtrl)
		payloads[i] = comm.JoinPayloads(comm.EncodeSparse(dWs[i]), comm.EncodeSparse(dCs[i]))
	}
	wantState, wantC := StreamFoldRefSPATL(global.State(models.ScopeEncoder),
		append([]float32(nil), agg.c...), dWs, dCs, clients)
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			bitEq(t, "state", global.State(models.ScopeEncoder), wantState)
			bitEq(t, "c", agg.c, wantC)
		},
	}
}

// ssflScoresFixture permutes the mask-agreement round: the permuted
// instance's agreed state and salient ranges must match a reference
// instance fed in ascending order (whose score fold matches
// StreamFoldRefSSFLScores by construction of agreeMask).
func ssflScoresFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)
	build := func() (*models.SplitModel, *SSFLAggregator) {
		global := models.Build(spec, 7)
		return global, NewSSFLAggregator(global, SSFLOptions{}, Config{NumClients: 64})
	}
	refGlobal, refAgg := build()
	scoreLen := ssflScoreLen(refGlobal)
	scores := make([][]float32, k)
	payloads := make([][]byte, k)
	for i := range scores {
		sc := make([]float32, scoreLen)
		for j := range sc {
			sc[j] = float32(rng.Float64() + 0.01)
		}
		scores[i] = sc
		payloads[i] = comm.EncodeDense(sc)
	}
	refAgg.BeginRound(0, streamIDs)
	for i := range streamIDs {
		refAgg.Collect(0, streamIDs[i], sizes[i], payloads[i])
	}
	refAgg.FinishRound(0)
	wantState := refGlobal.State(models.ScopeEncoder)

	global, agg := build()
	return &streamFixture{
		agg: agg, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) {
			if len(agg.ranges) != len(refAgg.ranges) {
				t.Fatalf("agreed ranges: %d vs %d", len(agg.ranges), len(refAgg.ranges))
			}
			for i := range agg.ranges {
				if agg.ranges[i] != refAgg.ranges[i] {
					t.Fatalf("range %d: %+v vs %+v", i, agg.ranges[i], refAgg.ranges[i])
				}
			}
			bitEq(t, "state", global.State(models.ScopeEncoder), wantState)
		},
	}
}

// ssflPackedFixture permutes a mask-static values-only round, checked
// against the retained dense reference SSFLReduceReference.
func ssflPackedFixture(seed int64) *streamFixture {
	spec := models.Spec{Arch: "cnn2", Classes: 2, InC: 1, H: 8, W: 8}
	global := models.Build(spec, 7)
	agg := NewSSFLAggregator(global, SSFLOptions{}, Config{NumClients: 64})
	rng := rand.New(rand.NewSource(seed))
	k := len(streamIDs)
	sizes := streamSizes(k)

	// Agreement round first (in order): fixes the mask and keptN.
	scoreLen := ssflScoreLen(global)
	agg.BeginRound(0, streamIDs)
	for i := range streamIDs {
		sc := make([]float32, scoreLen)
		for j := range sc {
			sc[j] = float32(rng.Float64() + 0.01)
		}
		agg.Collect(0, streamIDs[i], sizes[i], comm.EncodeDense(sc))
	}
	agg.FinishRound(0)

	stateAfter := global.State(models.ScopeEncoder)
	packed := randStates(rng, k, agg.keptN)
	weights := make([]float64, k)
	payloads := make([][]byte, k)
	for i := range packed {
		weights[i] = float64(sizes[i])
		payloads[i] = comm.EncodeSparseValsInto(nil, packed[i])
	}
	want := SSFLReduceReference(stateAfter, packed, weights, agg.ranges)
	return &streamFixture{
		agg: agg, round: 1, ids: streamIDs, sizes: sizes, payloads: payloads,
		check: func(t *testing.T) { bitEq(t, "state", global.State(models.ScopeEncoder), want) },
	}
}

var streamCases = []struct {
	name string
	make func(seed int64) *streamFixture
}{
	{"fedavg", fedavgFixture},
	{"fednova", fednovaFixture},
	{"scaffold", scaffoldFixture},
	{"spatl", spatlFixture},
	{"ssfl-scores", ssflScoresFixture},
	{"ssfl-packed", ssflPackedFixture},
}

// streamPerms yields the arrival orders under test: identity, reverse,
// and seeded shuffles.
func streamPerms(n, extra int) [][]int {
	id := make([]int, n)
	rev := make([]int, n)
	for i := range id {
		id[i] = i
		rev[i] = n - 1 - i
	}
	perms := [][]int{id, rev}
	for s := 0; s < extra; s++ {
		rng := rand.New(rand.NewSource(int64(7919 + s)))
		perms = append(perms, rng.Perm(n))
	}
	return perms
}

// TestStreamPermutationMatchesSerialRef drives every aggregator family
// through every arrival permutation at GOMAXPROCS 1 and NumCPU and
// demands bitwise identity with the serial StreamFoldRef ground truth.
func TestStreamPermutationMatchesSerialRef(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for _, tc := range streamCases {
			t.Run(fmt.Sprintf("%s/gomaxprocs=%d", tc.name, gmp), func(t *testing.T) {
				for pi, perm := range streamPerms(len(streamIDs), 6) {
					fx := tc.make(1234) // same data for every permutation
					fx.agg.BeginRound(fx.round, fx.ids)
					for _, p := range perm {
						fx.agg.Collect(fx.round, fx.ids[p], fx.sizes[p], fx.payloads[p])
					}
					fx.agg.FinishRound(fx.round)
					fx.check(t)
					if t.Failed() {
						t.Fatalf("permutation %d (%v) diverged from the serial reference", pi, perm)
					}
				}
			})
		}
	}
}

// TestStreamPermutationWithAbsentees drops two of six clients — one
// announced via MarkAbsent mid-round, one that silently never delivers —
// and permutes the survivors. The fold must equal the serial reference
// over the delivered subset, whichever way the absences were learned.
func TestStreamPermutationWithAbsentees(t *testing.T) {
	const absentMarked, absentSilent = 1, 4 // positions in streamIDs
	for pi, perm := range streamPerms(len(streamIDs), 6) {
		fx := fedavgFixtureSubset(1234, absentMarked, absentSilent)
		fx.agg.BeginRound(fx.round, fx.ids)
		delivered := 0
		for _, p := range perm {
			if p == absentSilent {
				continue
			}
			if p == absentMarked {
				fx.agg.MarkAbsent(fx.round, fx.ids[p])
				continue
			}
			fx.agg.Collect(fx.round, fx.ids[p], fx.sizes[p], fx.payloads[p])
			delivered++
		}
		fx.agg.FinishRound(fx.round)
		fx.check(t)
		if t.Failed() {
			t.Fatalf("permutation %d (%v) with absentees diverged", pi, perm)
		}
	}
}

// fedavgFixtureSubset is fedavgFixture with the reference computed over
// only the delivered clients (nil rows for the absent positions).
func fedavgFixtureSubset(seed int64, absent ...int) *streamFixture {
	fx := fedavgFixture(seed)
	k := len(fx.ids)
	states := make([][]float32, k)
	weights := make([]float64, k)
	for i := range fx.payloads {
		st, err := comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		if err != nil {
			panic(err)
		}
		states[i] = st
		weights[i] = float64(fx.sizes[i])
	}
	for _, a := range absent {
		states[a] = nil
	}
	want := StreamFoldRefFedAvg(states, weights)
	agg := fx.agg.(*FedAvgAggregator)
	fx.check = func(t *testing.T) { bitEq(t, "state", agg.Global.State(models.ScopeAll), want) }
	return fx
}

// TestStreamDuplicateAndUnknownFoldAtArrival pins the extras semantics:
// a duplicate of an already-resolved position and an upload from a
// client outside the selection both fold at their arrival position —
// the buffered path's append semantics.
func TestStreamDuplicateAndUnknownFoldAtArrival(t *testing.T) {
	fx := fedavgFixture(99)
	agg := fx.agg.(*FedAvgAggregator)
	k := len(fx.ids)
	states := make([][]float32, 0, k+2)
	weights := make([]float64, 0, k+2)
	fx.agg.BeginRound(0, fx.ids)
	for i := range fx.ids {
		fx.agg.Collect(0, fx.ids[i], fx.sizes[i], fx.payloads[i])
		st, _ := comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		states = append(states, st)
		weights = append(weights, float64(fx.sizes[i]))
	}
	// Duplicate of the first client, then a never-selected client: both
	// fold on arrival, i.e. appended to the canonical chain.
	for _, extra := range []struct {
		id   uint32
		pos  int
		size int
	}{{fx.ids[0], 0, 77}, {9999, 2, 33}} {
		fx.agg.Collect(0, extra.id, extra.size, fx.payloads[extra.pos])
		st, _ := comm.DecodeDenseAnyInto(nil, fx.payloads[extra.pos])
		states = append(states, st)
		weights = append(weights, float64(extra.size))
	}
	fx.agg.FinishRound(0)
	want := StreamFoldRefFedAvg(states, weights)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), want)
}

// TestStreamLegacyArrivalOrder drives an aggregator without BeginRound:
// arrival order IS the fold order — the pre-streaming semantics every
// transport that does not announce a selection still gets.
func TestStreamLegacyArrivalOrder(t *testing.T) {
	fx := fedavgFixture(7)
	agg := fx.agg.(*FedAvgAggregator)
	states := make([][]float32, len(fx.ids))
	weights := make([]float64, len(fx.ids))
	for i := range fx.ids {
		fx.agg.Collect(0, fx.ids[i], fx.sizes[i], fx.payloads[i])
		states[i], _ = comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		weights[i] = float64(fx.sizes[i])
	}
	fx.agg.FinishRound(0)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}

// TestStreamStagingBoundAtScale feeds 10k clients in exact reverse order
// — the worst case for the cursor — under a hard staging limit and
// checks the bound held: peak staged never exceeds the limit, overflow
// evictions were counted, and the round state fully resets.
func TestStreamStagingBoundAtScale(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 3)
	agg := NewFedAvgAggregator(global, Config{NumClients: 10000})
	const limit = 256
	agg.SetStagingLimit(limit)
	n := global.StateLen(models.ScopeAll)
	st := make([]float32, n)
	for j := range st {
		st[j] = float32(j%7) - 3
	}
	payload := comm.EncodeDense(st) // decode copies, so one payload serves all
	ids := make([]uint32, 10000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	agg.BeginRound(0, ids)
	for i := len(ids) - 1; i >= 0; i-- {
		agg.Collect(0, ids[i], 100, payload)
	}
	agg.FinishRound(0)
	if peak := agg.StagingPeak(); peak > limit {
		t.Fatalf("staging peak %d exceeds limit %d", peak, limit)
	}
	if agg.StagingOverflow() == 0 {
		t.Fatal("reverse-order feed at 10k clients should have overflowed a 256-entry pool")
	}
	if len(agg.staged) != 0 || len(agg.order) != 0 {
		t.Fatalf("round state not reset: %d staged, %d order", len(agg.staged), len(agg.order))
	}
}

// TestStreamStagingLosslessDefault checks the default bound (selection
// size): a full reverse-order round stages everything, evicts nothing,
// and still reduces bitwise identically to the serial reference.
func TestStreamStagingLosslessDefault(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 3)
	const k = 512
	agg := NewFedAvgAggregator(global, Config{NumClients: k})
	n := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(5))
	states := randStates(rng, k, n)
	weights := make([]float64, k)
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = uint32(i)
		weights[i] = float64(10 + i%90)
	}
	agg.BeginRound(0, ids)
	for i := k - 1; i >= 0; i-- {
		agg.Collect(0, ids[i], int(weights[i]), comm.EncodeDense(states[i]))
	}
	agg.FinishRound(0)
	if ov := agg.StagingOverflow(); ov != 0 {
		t.Fatalf("default bound evicted %d uploads", ov)
	}
	if peak := agg.StagingPeak(); peak != k-1 {
		t.Fatalf("reverse feed should stage k-1 = %d uploads, peaked at %d", k-1, peak)
	}
	bitEq(t, "state", global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}

// TestStreamRaceHammer randomizes everything the transports randomize —
// arrival order via racing producer goroutines, staging pressure via a
// per-round limit — across sequential rounds. Rounds with the lossless
// default bound must stay bitwise identical to the serial reference;
// bounded rounds must respect the bound. Run under -race by the hot
// battery (scripts/verify.sh --hot).
func TestStreamRaceHammer(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 4, W: 4, Width: 0.25}
	global := models.Build(spec, 11)
	const k = 96
	agg := NewFedAvgAggregator(global, Config{NumClients: k})
	n := global.StateLen(models.ScopeAll)
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = uint32(i * 3)
	}
	type msg struct {
		pos     int
		payload []byte
	}
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(100 + round)))
		states := randStates(rng, k, n)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = float64(20 + i%60)
		}
		limit := 0 // lossless default on even rounds
		if round%2 == 1 {
			limit = 1 + rng.Intn(k/4) // random staging pressure
		}
		agg.SetStagingLimit(limit)
		agg.BeginRound(round, ids)

		// Racing producers: each encodes its strided share of the uploads
		// concurrently; the consumer ingests in whatever order they land.
		out := make(chan msg, k)
		const producers = 8
		for w := 0; w < producers; w++ {
			go func(w int) {
				for pos := w; pos < k; pos += producers {
					out <- msg{pos: pos, payload: comm.EncodeDense(states[pos])}
				}
			}(w)
		}
		for i := 0; i < k; i++ {
			m := <-out
			agg.Collect(round, ids[m.pos], int(weights[m.pos]), m.payload)
		}
		agg.FinishRound(round)
		if limit == 0 {
			bitEq(t, "state", global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
		} else if peak := agg.StagingPeak(); peak > int64(k) {
			t.Fatalf("round %d: staging peak %d exceeds selection size", round, peak)
		}
	}
}

// TestStreamBatchCollectMatchesSerialRef routes the same round through
// CollectBatch — the concurrent-decode fast path every shard transport
// uses — and demands the identical bitwise result.
func TestStreamBatchCollectMatchesSerialRef(t *testing.T) {
	fx := fedavgFixture(42)
	agg := fx.agg.(*FedAvgAggregator)
	states := make([][]float32, len(fx.ids))
	weights := make([]float64, len(fx.ids))
	ups := make([]Upload, len(fx.ids))
	for i := range fx.ids {
		states[i], _ = comm.DecodeDenseAnyInto(nil, fx.payloads[i])
		weights[i] = float64(fx.sizes[i])
		// Reverse the batch order: the cursor must reorder it.
		j := len(fx.ids) - 1 - i
		ups[i] = Upload{Client: fx.ids[j], TrainSize: fx.sizes[j], Payload: fx.payloads[j]}
	}
	fx.agg.BeginRound(0, fx.ids)
	agg.CollectBatch(0, ups)
	fx.agg.FinishRound(0)
	bitEq(t, "state", agg.Global.State(models.ScopeAll), StreamFoldRefFedAvg(states, weights))
}
