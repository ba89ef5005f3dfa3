package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/flnet"
	"spatl/internal/models"
)

// ingest-tree: the aggregation-tree root, flnet.TreeServer, fed by two
// benchmark-side edge connections. Each edge answers every round
// broadcast with one pooled frame of its clients' precomputed ResNet-20
// dense uploads, drawn from a few distinct seeded payloads; every round
// selects all clients and waits for both frames (a closed loop). No
// model trains: frame reads, comm decode, the streaming fold and the
// finalize step do all the work.

const (
	treeEdges          = 2
	treeClientsPerEdge = 400
	treePayloads       = 4
	treeRounds         = 40
)

// treeModel is the upload geometry: ResNet-20 at the spatl-sim scale,
// 71,437 payload bytes.
var treeModel = models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}

func init() {
	register(&workload{
		name:       "ingest-tree",
		fedSeconds: 2.2,
		fed:        runTree,
		decode:     decodeDense,
		overTCP:    true,
	})
}

// treeSetup is one federation's generated input.
type treeSetup struct {
	sizes []int     // train size per client ID
	frame [][]byte  // pooled shard payload per edge
	hello [][]byte  // edge registration payload per edge
	sel   [][]byte  // expected round selection per edge
	ref   []float32 // the weighted average the root must produce
}

func newTreeSetup(sub int64) *treeSetup {
	n := treeEdges * treeClientsPerEdge
	rng := rand.New(rand.NewSource(sub))
	states := make([][]float32, treePayloads)
	payloads := make([][]byte, treePayloads)
	for i := range payloads {
		states[i] = models.Build(treeModel, sub+int64(i)).State(models.ScopeAll)
		payloads[i] = comm.EncodeDense(states[i])
	}
	s := &treeSetup{sizes: make([]int, n)}
	pick := make([]int, n)
	for i := range s.sizes {
		s.sizes[i] = 20 + rng.Intn(100)
		pick[i] = rng.Intn(treePayloads)
	}
	for e := 0; e < treeEdges; e++ {
		lo, hi := algo.ShardRange(e, n, treeEdges)
		hello := binary.LittleEndian.AppendUint32(nil, uint32(hi-lo))
		var sel []byte
		sb := &algo.ShardBuffer{}
		for id := lo; id < hi; id++ {
			hello = binary.LittleEndian.AppendUint32(hello, uint32(id))
			hello = binary.LittleEndian.AppendUint32(hello, uint32(s.sizes[id]))
			sel = binary.LittleEndian.AppendUint32(sel, uint32(id))
			sb.Add(uint32(id), s.sizes[id], payloads[pick[id]])
		}
		s.hello, s.sel, s.frame = append(s.hello, hello), append(s.sel, sel), append(s.frame, sb.Payload())
	}
	// Σwᵢxᵢ/Σwᵢ in float64, folded in ascending client ID: the order
	// DESIGN.md §14 fixes for the streaming reduce. The conversions keep
	// each product rounded on its own (no fused multiply-add).
	acc := make([]float64, len(states[0]))
	var sumW float64
	for id, w := range s.sizes {
		sumW += float64(w)
		for j, x := range states[pick[id]] {
			acc[j] += float64(float64(w) * float64(x))
		}
	}
	s.ref = make([]float32, len(acc))
	for j := range acc {
		s.ref[j] = float32(acc[j] / sumW)
	}
	return s
}

// sameBits reports how many entries of got equal want bitwise.
func sameBits(got, want []float32) int {
	n := 0
	for j := range want {
		if j < len(got) && math.Float32bits(got[j]) == math.Float32bits(want[j]) {
			n++
		}
	}
	return n
}

func runTree(sub int64, traced bool) (*fedRun, error) {
	f := &fedRun{sub: sub, traced: traced, epochs: 1}
	tel := newTel(traced)
	t0 := time.Now()
	s := newTreeSetup(sub)
	f.setupS = since(t0)
	f.buildS = f.setupS

	n := treeEdges * treeClientsPerEdge
	root, err := flnet.NewTreeServer(flnet.TreeServerConfig{
		Addr: "127.0.0.1:0", Shards: treeEdges, Clients: n, Rounds: treeRounds, PerRound: n, Seed: sub,
		HelloTimeout: time.Minute, StragglerTimeout: time.Minute, WriteTimeout: time.Minute, Tel: tel,
	})
	if err != nil {
		return nil, err
	}
	core := algo.NewFedAvgAggregator(models.Build(treeModel, sub), algo.Config{NumClients: n, Seed: sub})
	clock := newRecorder()
	agg, err := wrapAgg(core, clock, traced)
	if err != nil {
		return nil, err
	}
	f.agg = agg
	// The target is the exact reference aggregate; every round selects
	// every client, so each round's global model must equal it.
	mismatched := 0
	agg.after = func(round int) {
		if sameBits(core.Global.State(models.ScopeAll), s.ref) != len(s.ref) {
			mismatched++
		} else if f.reached == 0 {
			f.reached = round + 1
			f.toTarget = float64(clock.now()-agg.rounds[0].Start) / 1e9
		}
		f.sampleHeap()
	}

	var wg sync.WaitGroup
	finals := make([][]byte, treeEdges)
	edgeErrs := make([]error, treeEdges)
	for e := 0; e < treeEdges; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			finals[e], edgeErrs[e] = runEdge(root.Addr(), e, s)
		}(e)
	}
	f.rt0 = readRuntime()
	runErr := root.Run(agg)
	wg.Wait()
	agg.after = nil // drop the closure's hold on the set-up
	f.rt1 = readRuntime()
	if runErr != nil {
		return nil, fmt.Errorf("tree root: %w", runErr)
	}
	for e, err := range edgeErrs {
		if err != nil {
			f.failed++
			f.problem("edge %d: %v", e, err)
		}
	}
	f.spans, f.reg = clock.snapshot(), tel.Reg
	f.digest = digestState(core.Global)
	final, err := comm.DecodeDense(finals[0])
	if err != nil {
		f.problem("final model: %v", err)
	}
	same := sameBits(final, s.ref)
	f.finalAcc = float64(same) / float64(len(s.ref))
	if same != len(s.ref) || len(final) != len(s.ref) {
		f.problem("final model differs from the reference weighted average in %d of %d entries",
			len(s.ref)-same, len(s.ref))
	}
	f.checkBytes(root.Meter().Up(), root.Meter().Down(), n)
	f.countUploads()
	f.failed += root.Drops() + tel.Reg.Counter("flnet.errors").Value() + agg.Dropped()
	if mismatched > 0 {
		f.problem("%d of %d rounds ended with a global model other than the reference aggregate", mismatched, treeRounds)
	}
	f.requireTarget(1)
	return f, nil
}

// runEdge speaks the edge side of the tree protocol for one shard:
// register the shard's clients, answer every round broadcast with the
// precomputed pooled frame, and return the final model payload.
func runEdge(addr string, e int, s *treeSetup) ([]byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := flnet.WriteFrame(conn, flnet.Frame{Type: flnet.MsgEdgeHello, Client: uint32(e), Payload: s.hello[e]}); err != nil {
		return nil, err
	}
	for {
		fr, err := flnet.ReadFrame(conn)
		if err != nil {
			return nil, err
		}
		switch fr.Type {
		case flnet.MsgRoundStart:
			parts, err := comm.SplitPayloads(fr.Payload)
			ok := err == nil && len(parts) == 2 && bytes.Equal(parts[0], s.sel[e])
			fr.Release()
			if !ok {
				return nil, fmt.Errorf("round %d: unexpected broadcast or selection", fr.Round)
			}
			out := flnet.Frame{Type: flnet.MsgShardUpdate, Client: uint32(e), Round: fr.Round, Payload: s.frame[e]}
			if err := flnet.WriteFrame(conn, out); err != nil {
				return nil, err
			}
		case flnet.MsgDone:
			final := append([]byte(nil), fr.Payload...)
			fr.Release()
			return final, nil
		default:
			fr.Release()
			return nil, fmt.Errorf("unexpected frame type %d", fr.Type)
		}
	}
}
