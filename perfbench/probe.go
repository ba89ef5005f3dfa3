package main

import (
	"math/rand"
	"time"

	"spatl/internal/comm"
	"spatl/internal/nn"
	"spatl/internal/scenario"
	"spatl/internal/tensor"
)

// layerKinds are the nn layer kinds the probe reports, in output order.
var layerKinds = []string{"conv", "bn", "relu", "pool", "block", "linear"}

// kindOf maps a top-level model layer to its reported kind ("" for
// layers the probe does not report, such as Flatten).
func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.ReLU:
		return "relu"
	case *nn.MaxPool2D, *nn.GlobalAvgPool:
		return "pool"
	case *nn.BasicBlock:
		return "block"
	case *nn.Linear:
		return "linear"
	}
	return ""
}

// probeResult is the layer-by-layer cost of one local epoch.
type probeResult struct {
	fwd, bwd, flops map[string]float64 // seconds and forward FLOPs per epoch, by kind
	loss, opt       float64            // seconds per epoch
}

// probeEpochs is how many epochs the probe replays; results are per
// epoch.
const probeEpochs = 3

// trainProbe replays local epochs of the workload's model on its
// largest client's data, timing each top-level layer's Forward and
// Backward, the loss and the SGD step from outside. It mirrors
// algo.LocalSGD's step on the full parameter set.
func trainProbe(spec scenario.Spec, sub int64) probeResult {
	env, err := scenario.BuildEnv(spec, nil)
	if err != nil {
		panic(err) // the workload spec is a constant that BuildEnv accepted for the federations
	}
	c := env.Clients[0]
	for _, cl := range env.Clients {
		if cl.Train.Len() > c.Train.Len() {
			c = cl
		}
	}
	m := env.Global
	layers := append(append([]nn.Layer(nil), m.Encoder.Layers...), m.Predictor.Layers...)
	params := m.Params()
	opt := nn.NewSGD(params, spec.LR, spec.Momentum, spec.WeightDecay)
	rng := rand.New(rand.NewSource(sub))
	r := probeResult{fwd: map[string]float64{}, bwd: map[string]float64{}, flops: map[string]float64{}}
	for e := 0; e < probeEpochs; e++ {
		for _, idx := range c.Train.Batches(rng, spec.BatchSize) {
			x, y := c.Train.Batch(idx)
			nn.ZeroGrad(params)
			var h *tensor.Tensor = x
			for _, l := range layers {
				t0 := time.Now()
				h = l.Forward(h, true)
				k := kindOf(l)
				r.fwd[k] += since(t0)
				r.flops[k] += float64(l.FLOPs()) * float64(len(idx))
			}
			t0 := time.Now()
			_, g := nn.SoftmaxCrossEntropy(h, y)
			r.loss += since(t0)
			for i := len(layers) - 1; i >= 0; i-- {
				t0 := time.Now()
				g = layers[i].Backward(g)
				r.bwd[kindOf(layers[i])] += since(t0)
			}
			t0 = time.Now()
			opt.Step()
			r.opt += since(t0)
		}
	}
	for _, mp := range []map[string]float64{r.fwd, r.bwd, r.flops} {
		for k := range mp {
			mp[k] /= probeEpochs
		}
	}
	r.loss /= probeEpochs
	r.opt /= probeEpochs
	return r
}

// decodeDense replays a dense upload through the comm decoder the
// FedAvg aggregator uses.
func decodeDense(p []byte) error {
	v, err := comm.DecodeDenseAnyInto(comm.GetF32((len(p)-comm.DenseLen(0))/4), p)
	comm.PutF32(v)
	return err
}

// decodeSparsePair replays a SPATL upload: split the joined payload,
// then decode the sparse model delta and control delta.
func decodeSparsePair(p []byte) error {
	parts, err := comm.SplitPayloads(p)
	if err != nil {
		return err
	}
	for _, part := range parts {
		s := &comm.Sparse{Values: comm.GetF32(len(part) / 4)[:0]}
		err := comm.DecodeSparseAnyInto(s, part)
		comm.PutSparse(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeSecondsPerMB replays the captured uploads through decode for at
// least minSeconds and returns seconds per MiB decoded.
func decodeSecondsPerMB(decode func([]byte) error, uploads [][]byte) (float64, error) {
	const minSeconds = 0.3
	if len(uploads) == 0 {
		return 0, nil
	}
	var bytes int64
	t0 := time.Now()
	for since(t0) < minSeconds {
		for _, u := range uploads {
			if err := decode(u); err != nil {
				return 0, err
			}
			bytes += int64(len(u))
		}
	}
	return since(t0) / comm.MB(bytes), nil
}
