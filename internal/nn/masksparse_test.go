package nn

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/tensor"
	"spatl/internal/testutil"
)

// maskConvWeights zeroes a fraction of the conv's filter rows (the shape
// a channel mask produces) and bumps the weight version, as pruning does.
func maskConvWeights(c *Conv2D, frac float64, rng *rand.Rand) {
	w := c.weight.W
	rows, cols := w.Dim(0), w.Dim(1)
	for r := 0; r < rows; r++ {
		if rng.Float64() < frac {
			row := w.Data[r*cols : (r+1)*cols]
			for j := range row {
				row[j] = 0
			}
		}
	}
	// At least one zero row and one surviving row, so both kernels always
	// have work and skips.
	for j := 0; j < cols; j++ {
		w.Data[j] = 0
	}
	if rows > 1 && w.Data[cols] == 0 {
		w.Data[cols] = 0.5
	}
	c.weight.Bump()
}

// TestConvUnmaskTakesEffect: un-masking a filter row and bumping the
// weights must show up in the next forward pass — no dispatch decision
// or packed panel may outlive the weights it was derived from.
func TestConvUnmaskTakesEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := NewConv2D("conv", 2, 6, 3, 1, 1, false, rng)
	maskConvWeights(c, 0.8, rng)
	x := tensor.New(2, 2, 6, 6)
	x.Randn(rng, 1)
	y := c.Forward(x, false)
	outStride := y.Dim(2) * y.Dim(3)
	y1 := append([]float32(nil), y.Data...)

	cols := c.weight.W.Dim(1)
	zeroRow := -1
	for r := 0; r < c.OutC; r++ {
		allZero := true
		for j := 0; j < cols; j++ {
			if c.weight.W.Data[r*cols+j] != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeroRow = r
			break
		}
	}
	if zeroRow < 0 {
		t.Fatal("no fully masked row to flip")
	}
	for _, v := range y1[zeroRow*outStride : (zeroRow+1)*outStride] {
		if v != 0 {
			t.Fatalf("masked row %d produced nonzero output %v before the un-mask", zeroRow, v)
		}
	}

	// Flip the masked row back on.
	for j := 0; j < cols; j++ {
		c.weight.W.Data[zeroRow*cols+j] = 1
	}
	c.weight.Bump()
	y2 := c.Forward(x, false)
	changed := false
	for _, v := range y2.Data[zeroRow*outStride : (zeroRow+1)*outStride] {
		if v != 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("un-masking a row produced no output: stale weights survived Bump")
	}
}

// refTransBSkipZero is the scalar reference for a masked A·Wᵀ: an
// ascending-p dot product summing exactly the terms where W's element
// is nonzero.
func refTransBSkipZero(c, a, w []float32, m, outs, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < outs; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if w[j*k+p] != 0 {
					s += a[i*k+p] * w[j*k+p]
				}
			}
			c[i*outs+j] = s
		}
	}
}

// refRightSkipZero is the scalar reference for a masked A·W:
// ascending-row dot products over W's nonzero column entries.
func refRightSkipZero(c, a, w []float32, m, ins, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			var s float32
			for p := 0; p < ins; p++ {
				if w[p*k+j] != 0 {
					s += a[i*ins+p] * w[p*k+j]
				}
			}
			c[i*k+j] = s
		}
	}
}

// TestLinearMaskStaticMatchesRef: a masked linear layer must produce the
// scalar skip-zero reference results through both forward and
// backward, at every forced GOMAXPROCS.
func TestLinearMaskStaticMatchesRef(t *testing.T) {
	testutil.ForEachProcs(t, func(procs int) {
		rng := rand.New(rand.NewSource(23))
		l := NewLinear("fc", 24, 10, rng)
		// Mask 60% of weight entries.
		for i := range l.weight.W.Data {
			if rng.Float64() < 0.6 {
				l.weight.W.Data[i] = 0
			}
		}
		l.weight.Bump()
		x := tensor.New(7, 24)
		x.Randn(rng, 1)
		y := l.Forward(x, true)

		want := make([]float32, 7*10)
		refTransBSkipZero(want, x.Data, l.weight.W.Data, 7, 10, 24)
		for i := 0; i < 7; i++ {
			tensor.VecAdd(want[i*10:(i+1)*10], l.bias.W.Data)
		}
		for i := range want {
			if math.Float32bits(y.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("procs=%d: forward index %d differs", procs, i)
			}
		}

		dout := tensor.New(7, 10)
		dout.Randn(rng, 1)
		ZeroGrad(l.Params())
		dx := l.Backward(dout)
		wantDx := make([]float32, 7*24)
		refRightSkipZero(wantDx, dout.Data, l.weight.W.Data, 7, 10, 24)
		for i := range wantDx {
			if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx[i]) {
				t.Fatalf("procs=%d: dx index %d differs", procs, i)
			}
		}
	})
}
