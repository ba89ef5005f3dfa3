package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatl/internal/tensor"
	"spatl/internal/testutil"
)

// perImageConvForward is the pre-fusion dense forward formulation: one
// patch-major lowering and one W·colᵀ product per image. The batch-fused
// path must reproduce it bit for bit (the fused GEMM computes the same
// ascending-k dot chains with multiply operands swapped).
func perImageConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	d := tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
	colRows := c.InC * c.K * c.K
	cols := d.OutH * d.OutW
	out := tensor.New(n, c.OutC, d.OutH, d.OutW)
	col := make([]float32, cols*colRows)
	inStride := c.InC * h * w
	outStride := c.OutC * cols
	for i := 0; i < n; i++ {
		tensor.Im2ColPatch(col, x.Data[i*inStride:(i+1)*inStride], d)
		oi := out.Data[i*outStride : (i+1)*outStride]
		tensor.MatMulTransBSlice(oi, c.weight.W.Data, col, c.OutC, colRows, cols)
		if c.useBias {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.bias.W.Data[oc]
				row := oi[oc*cols : (oc+1)*cols]
				for j := range row {
					row[j] += b
				}
			}
		}
	}
	return out
}

// perImageConvBackward is the per-image backward formulation as one
// chain in image order: each image's dW product is a fresh ascending-k
// dot over its output positions, added to one running total that starts
// at zero; db sums each image's gradients in float64 and adds them in
// image order; dx is a per-image Wᵀ·g plus col2im. The totals are added
// to zeroed gradients once. Conv2D.Backward must reproduce every bit at
// any GOMAXPROCS.
func perImageConvBackward(c *Conv2D, x, dout *tensor.Tensor) (dx *tensor.Tensor, dw []float32, db []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	d := tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
	colRows := c.InC * c.K * c.K
	cols := d.OutH * d.OutW
	inStride := c.InC * h * w
	outStride := c.OutC * cols
	dx = tensor.New(n, c.InC, h, w)
	dw = make([]float32, c.OutC*colRows)
	db = make([]float32, c.OutC)
	col := make([]float32, colRows*cols)
	dcol := make([]float32, colRows*cols)
	sdw := make([]float32, c.OutC*colRows)
	sdb := make([]float64, c.OutC)
	for i := 0; i < n; i++ {
		tensor.Im2Col(col, x.Data[i*inStride:(i+1)*inStride], d)
		gi := dout.Data[i*outStride : (i+1)*outStride]
		for oc := 0; oc < c.OutC; oc++ {
			g := gi[oc*cols : (oc+1)*cols]
			for r := 0; r < colRows; r++ {
				var s float32
				for j, v := range g {
					s += v * col[r*cols+j]
				}
				sdw[oc*colRows+r] += s
			}
		}
		tensor.MatMulTransASlice(dcol, c.weight.W.Data, gi, colRows, c.OutC, cols)
		tensor.Col2Im(dx.Data[i*inStride:(i+1)*inStride], dcol, d)
		if c.useBias {
			for oc := 0; oc < c.OutC; oc++ {
				var sum float64
				for _, v := range gi[oc*cols : (oc+1)*cols] {
					sum += float64(v)
				}
				sdb[oc] += sum
			}
		}
	}
	for i, v := range sdw {
		dw[i] += v
	}
	for oc, v := range sdb {
		db[oc] += float32(v)
	}
	return dx, dw, db
}

// TestConv2DBatchFusedBitwise runs the batch-fused Forward/Backward over
// geometries with remainder GEMM rows and columns and checks every
// output, input gradient and parameter gradient bit against the
// per-image formulation, at each forced GOMAXPROCS. The channel-masked
// row zeroes most filter rows, as an SSFL mask does, so both passes take
// the zero-skipping sparse kernels instead of the packed dense ones. The
// 1×1 and 2×2 rows are VGG-11's tail, where each image contributes one
// or four output positions to the weight gradient; colRows27 has
// colRows and OutC off the 16- and 4-wide tiles; twoGroups is large
// enough that fusedGroup splits the batch, so the gradient totals must
// carry across groups.
func TestConv2DBatchFusedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		name                          string
		n, inC, outC, h, w, k, st, pd int
		bias, masked                  bool
	}{
		{"3x3pad1", 5, 3, 8, 9, 7, 3, 1, 1, true, false},
		{"stride2oddOutC", 4, 2, 17, 8, 8, 3, 2, 1, false, false},
		{"5x5", 3, 1, 16, 11, 5, 5, 1, 2, true, false},
		{"singleImage", 1, 4, 6, 6, 6, 3, 1, 1, false, false},
		{"channelMasked", 5, 3, 8, 9, 9, 3, 1, 1, true, true},
		{"vggTail1x1", 16, 16, 20, 1, 1, 3, 1, 1, true, false},
		{"vggTail2x2", 16, 16, 20, 2, 2, 3, 1, 1, false, false},
		{"colRows27", 6, 3, 10, 7, 7, 3, 1, 1, true, false},
		{"twoGroups", 20, 16, 6, 24, 24, 5, 1, 2, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D("c", tc.inC, tc.outC, tc.k, tc.st, tc.pd, tc.bias, rng)
			if tc.masked {
				maskConvWeights(c, 0.7, rng)
				if !tensor.IsSparse(c.weight.W.Data) {
					t.Fatal("masked weights do not take the sparse path")
				}
			}
			x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
			x.Randn(rng, 1)
			wantOut := perImageConvForward(c, x)
			dout := tensor.New(wantOut.Shape()...)
			dout.Randn(rng, 1)
			wantDx, wantDw, wantDb := perImageConvBackward(c, x, dout)
			testutil.ForEachProcs(t, func(procs int) {
				gotOut := c.Forward(x, true)
				compareBits(t, fmt.Sprintf("GOMAXPROCS=%d forward", procs), gotOut.Data, wantOut.Data)
				ZeroGrad(c.Params())
				gotDx := c.Backward(dout)
				compareBits(t, fmt.Sprintf("GOMAXPROCS=%d dx", procs), gotDx.Data, wantDx.Data)
				compareBits(t, fmt.Sprintf("GOMAXPROCS=%d dW", procs), c.weight.G.Data, wantDw)
				if tc.bias {
					compareBits(t, fmt.Sprintf("GOMAXPROCS=%d db", procs), c.bias.G.Data, wantDb)
				}
			})

			// Mutating the weights must invalidate the packed panels: a
			// second Forward has to match a fresh reference of the new
			// weights, not replay the cached ones.
			c.weight.W.Set(c.weight.W.At(0, 0)+1, 0, 0)
			compareBits(t, "forward after weight mutation",
				c.Forward(x, true).Data, perImageConvForward(c, x).Data)
		})
	}
}

func compareBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: fused %08x (%v), per-image %08x (%v)",
				what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}
