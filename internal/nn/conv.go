package nn

import (
	"fmt"
	"math/rand"

	"spatl/internal/tensor"
)

// Conv2D is a 2D convolution with square kernels, shared stride/padding on
// both axes and optional bias. Both passes lower groups of images to one
// column matrix (im2col) and run one GEMM per group against the filter
// matrix; backward recomputes the lowering rather than caching it, trading
// FLOPs for memory. Every output and gradient bit depends on the batch
// alone, never on GOMAXPROCS: parallel work is split only over disjoint
// outputs, and the weight gradient is summed in image order.
type Conv2D struct {
	name                      string
	InC, OutC, K, Stride, Pad int
	weight, bias              *Param
	useBias                   bool
	dims                      tensor.ConvDims
	haveDims                  bool
	x                         *tensor.Tensor // cached input for backward
	out, dx                   *tensor.Tensor // reused activation/gradient buffers

	// Weight panel caches, keyed on the weight tensor's mutation counter:
	// wpack holds the PackTransB image of W for the batch-fused forward
	// GEMM, wtrans holds Wᵀ for the batch-fused backward dx GEMM. Both
	// survive across batches until an optimizer step (or any other weight
	// write) bumps the counter.
	wpack, wtrans packCache
}

// NewConv2D constructs a convolution layer with He-normal initialized
// filters. Bias is included when useBias is true (models that follow the
// conv with BatchNorm typically disable it).
func NewConv2D(name string, inC, outC, k, stride, pad int, useBias bool, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		useBias: useBias,
	}
	c.weight = newParam("weight", outC, inC*k*k)
	c.weight.W.KaimingNormal(rng, inC*k*k)
	if useBias {
		c.bias = newParam("bias", outC)
	}
	return c
}

// Forward implements Layer. Input shape (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", c.name, c.InC, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if !c.haveDims || c.dims.H != h || c.dims.W != w {
		c.dims = tensor.NewConvDims(c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad)
		c.haveDims = true
	}
	d := c.dims
	out := tensor.Reuse(c.out, n, c.OutC, d.OutH, d.OutW)
	c.out = out
	inStride := c.InC * h * w
	outStride := c.OutC * d.OutH * d.OutW
	colRows := c.InC * c.K * c.K
	cols := d.OutH * d.OutW
	// Pruned/masked weights use the row-major lowering with the
	// zero-skipping kernel, which elides whole B-row passes per zero
	// weight. The lowering is batch-fused like the dense path: images sit
	// side by side in one wide (colRows, G·cols) matrix (Im2ColLD), so
	// each surviving weight's axpy runs over the whole group instead of
	// one image's columns — the vector kernel amortizes far better on the
	// deep layers whose per-image column count is tiny. The decision is a
	// strided sample of W (tensor.IsSparse) taken on every pass, so
	// masked weights (algo.SSFL) take this path for as long as their
	// channels stay zeroed.
	if tensor.IsSparse(c.weight.W.Data) {
		tensor.Parallel(n, func(lo, hi int) {
			for glo := lo; glo < hi; glo += fusedGroup(hi-glo, colRows*cols) {
				gn := fusedGroup(hi-glo, colRows*cols)
				wide := gn * cols
				colB := tensor.GetScratch(colRows * wide)
				for i := glo; i < glo+gn; i++ {
					tensor.Im2ColLD(colB[(i-glo)*cols:], x.Data[i*inStride:(i+1)*inStride], d, wide)
				}
				cB := tensor.GetScratch(c.OutC * wide)
				tensor.MatMulSparseSlice(cB, c.weight.W.Data, colB, c.OutC, colRows, wide)
				for i := glo; i < glo+gn; i++ {
					oi := out.Data[i*outStride : (i+1)*outStride]
					for oc := 0; oc < c.OutC; oc++ {
						copy(oi[oc*cols:(oc+1)*cols], cB[oc*wide+(i-glo)*cols:][:cols])
					}
					c.addBias(oi, cols)
				}
				tensor.PutScratch(cB)
				tensor.PutScratch(colB)
			}
		})
		c.x = x
		return out
	}
	// Dense weights take the batch-fused lowering: images are lowered
	// patch-major into one wide (G·cols, colRows) buffer and one GEMM per
	// group produces the whole group's activations. Either operand of the
	// product may play Bᵀ — every output element is dot(patch, filter) in
	// ascending-k order under both role assignments, so the choice is
	// bitwise-invisible — and we pick whichever keeps the vector panel
	// kernel engaged:
	//
	//   wide filter banks (OutC ≥ panel width): t = cols·Wᵀ with W as the
	//   packed operand, so the O(OutC·colRows) pack survives the whole
	//   batch (and across batches, via the version-keyed cache) instead of
	//   being repaid per image.
	//
	//   narrow filter banks (small OutC, e.g. early blocks of
	//   width-scaled ResNets): W has too few rows to fill a B panel and
	//   the swapped product would fall to the scalar kernel; instead run
	//   cB = W·colBᵀ with the wide patch buffer as B, which always has
	//   enough rows for the tile. The result is channel-major, so each
	//   image's rows copy straight out with no transpose.
	if tensor.PackedTransBWants(c.OutC, colRows) {
		wp := c.wpack.get(c.weight.W, c.OutC*colRows, func(dst []float32) {
			tensor.PackTransB(dst, c.weight.W.Data, c.OutC, colRows)
		})
		tensor.Parallel(n, func(lo, hi int) {
			for glo := lo; glo < hi; glo += fusedGroup(hi-glo, colRows*cols) {
				gn := fusedGroup(hi-glo, colRows*cols)
				colB := tensor.GetScratch(gn * cols * colRows)
				for i := glo; i < glo+gn; i++ {
					tensor.Im2ColPatch(colB[(i-glo)*cols*colRows:], x.Data[i*inStride:(i+1)*inStride], d)
				}
				t := tensor.GetScratch(gn * cols * c.OutC)
				tensor.MatMulTransBPackedSlice(t, colB, wp, gn*cols, colRows, c.OutC)
				// t is patch-major (G·cols, OutC); transpose each image's block
				// back to the (OutC, cols) activation layout, then add bias.
				for i := glo; i < glo+gn; i++ {
					oi := out.Data[i*outStride : (i+1)*outStride]
					tensor.TransposeSlice(oi, t[(i-glo)*cols*c.OutC:][:cols*c.OutC], cols, c.OutC)
					c.addBias(oi, cols)
				}
				tensor.PutScratch(t)
				tensor.PutScratch(colB)
			}
		})
		c.x = x
		return out
	}
	tensor.Parallel(n, func(lo, hi int) {
		for glo := lo; glo < hi; glo += fusedGroup(hi-glo, colRows*cols) {
			gn := fusedGroup(hi-glo, colRows*cols)
			wide := gn * cols
			colB := tensor.GetScratch(wide * colRows)
			for i := glo; i < glo+gn; i++ {
				tensor.Im2ColPatch(colB[(i-glo)*cols*colRows:], x.Data[i*inStride:(i+1)*inStride], d)
			}
			cB := tensor.GetScratch(c.OutC * wide)
			tensor.MatMulTransBSlice(cB, c.weight.W.Data, colB, c.OutC, colRows, wide)
			// cB is channel-major (OutC, G·cols): image i's channel oc row is
			// the contiguous slice at cB[oc·wide + (i-glo)·cols].
			for i := glo; i < glo+gn; i++ {
				oi := out.Data[i*outStride : (i+1)*outStride]
				for oc := 0; oc < c.OutC; oc++ {
					copy(oi[oc*cols:(oc+1)*cols], cB[oc*wide+(i-glo)*cols:][:cols])
				}
				c.addBias(oi, cols)
			}
			tensor.PutScratch(cB)
			tensor.PutScratch(colB)
		}
	})
	c.x = x
	return out
}

// addBias adds the per-channel bias to one image's (OutC, cols) activation
// block; a no-op for bias-free layers.
func (c *Conv2D) addBias(oi []float32, cols int) {
	if !c.useBias {
		return
	}
	for oc := 0; oc < c.OutC; oc++ {
		tensor.VecBiasAdd(oi[oc*cols:(oc+1)*cols], c.bias.W.Data[oc])
	}
}

// fusedFloatsCap bounds the widest scratch buffer a fused image group may
// allocate (in float32 elements, ~16 MiB), so huge batches of large
// feature maps are processed in a few chunked GEMMs instead of one
// enormous allocation. Grouping only changes where GEMM call boundaries
// fall, never any per-element accumulation chain.
const fusedFloatsCap = 4 << 20

// fusedGroup returns how many of the remaining n images to fuse into one
// lowered GEMM, given the per-image lowered size in floats.
func fusedGroup(n, perImage int) int {
	g := fusedFloatsCap / perImage
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	return g
}

// Backward implements Layer. The batch is processed in image groups
// (fusedGroup), each in two parallel steps:
//
//  1. Image-parallel: lower each image patch-major (Im2ColPatch, the
//     forward lowering) into one (G·cols, colRows) buffer, lay its output
//     gradients channel-major into one (OutC, G·cols) buffer, and form
//     the chunk's dx: dcol = Wᵀ·g through the cached Wᵀ (or the
//     zero-skipping Wᵀ·g for pruned weights), scattered by Col2ImLD.
//     Chunk boundaries only move GEMM call boundaries; every dx element
//     is the same ascending-OutC chain.
//  2. Output-parallel: dW += Σᵢ gᵢ·colᵢᵀ as one segmented-k GEMM
//     (tensor.MatMulSegAccSlice) whose segments are the group's images,
//     and db += per-image float64 sums in image order.
//
// The dW and db totals run across groups from zero and are added to the
// parameter gradients once, so every gradient bit is a function of the
// batch alone, whatever GOMAXPROCS is.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	x := c.x
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	d := c.dims
	cols := d.OutH * d.OutW
	colRows := c.InC * c.K * c.K
	inStride := c.InC * h * w
	outStride := c.OutC * cols

	dx := tensor.Reuse(c.dx, n, c.InC, h, w)
	c.dx = dx

	sparseW := tensor.IsSparse(c.weight.W.Data)
	var wt []float32
	if !sparseW {
		wt = c.wtrans.get(c.weight.W, colRows*c.OutC, func(dst []float32) {
			tensor.TransposeSlice(dst, c.weight.W.Data, c.OutC, colRows)
		})
	}
	dw := tensor.GetScratch(c.OutC * colRows)
	clear(dw)
	var db []float64
	if c.useBias {
		db = make([]float64, c.OutC)
	}
	for glo := 0; glo < n; glo += fusedGroup(n-glo, colRows*cols) {
		gn := fusedGroup(n-glo, colRows*cols)
		wide := gn * cols
		colB := tensor.GetScratch(wide * colRows)
		gB := tensor.GetScratch(c.OutC * wide)
		tensor.Parallel(gn, func(lo, hi int) {
			cw := (hi - lo) * cols
			// gC holds the chunk's output gradients in the layout its dx
			// GEMM reads: channel-major for the sparse kernel, patch-major
			// for the dense one.
			gC := tensor.GetScratch(c.OutC * cw)
			for i := lo; i < hi; i++ {
				tensor.Im2ColPatch(colB[i*cols*colRows:], x.Data[(glo+i)*inStride:][:inStride], d)
				gi := dout.Data[(glo+i)*outStride:][:outStride]
				for oc := 0; oc < c.OutC; oc++ {
					copy(gB[oc*wide+i*cols:][:cols], gi[oc*cols:(oc+1)*cols])
				}
				if sparseW {
					for oc := 0; oc < c.OutC; oc++ {
						copy(gC[oc*cw+(i-lo)*cols:][:cols], gi[oc*cols:(oc+1)*cols])
					}
				} else {
					tensor.TransposeSlice(gC[(i-lo)*cols*c.OutC:][:cols*c.OutC], gi, c.OutC, cols)
				}
			}
			dcol := tensor.GetScratch(colRows * cw)
			if sparseW {
				tensor.MatMulTransASparseSlice(dcol, c.weight.W.Data, gC, colRows, c.OutC, cw)
			} else {
				tensor.MatMulTransBSlice(dcol, wt, gC, colRows, c.OutC, cw)
			}
			for i := lo; i < hi; i++ {
				// Col2ImLD accumulates, so the reused image slice is zeroed
				// first.
				dxi := dx.Data[(glo+i)*inStride:][:inStride]
				clear(dxi)
				tensor.Col2ImLD(dxi, dcol[(i-lo)*cols:], d, cw)
			}
			tensor.PutScratch(dcol)
			tensor.PutScratch(gC)
		})
		tensor.MatMulSegAccSlice(dw, gB, colB, c.OutC, wide, colRows, cols)
		if c.useBias {
			tensor.Parallel(c.OutC, func(lo, hi int) {
				for oc := lo; oc < hi; oc++ {
					row := gB[oc*wide : (oc+1)*wide]
					for i := 0; i < gn; i++ {
						var s float64
						for _, v := range row[i*cols : (i+1)*cols] {
							s += float64(v)
						}
						db[oc] += s
					}
				}
			})
		}
		tensor.PutScratch(gB)
		tensor.PutScratch(colB)
	}
	tensor.VecAdd(c.weight.G.Data, dw)
	tensor.PutScratch(dw)
	for oc, v := range db {
		c.bias.G.Data[oc] += float32(v)
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// FLOPs implements Layer: 2·K²·InC·OutC·OutH·OutW per instance (multiply
// and add), plus bias adds.
func (c *Conv2D) FLOPs() int64 {
	if !c.haveDims {
		return 0
	}
	d := c.dims
	f := int64(2) * int64(c.K*c.K*c.InC) * int64(c.OutC) * int64(d.OutH*d.OutW)
	if c.useBias {
		f += int64(c.OutC) * int64(d.OutH*d.OutW)
	}
	return f
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Weight exposes the filter parameter (shape OutC × InC·K·K); used by the
// pruning subsystem to rank filters.
func (c *Conv2D) Weight() *Param { return c.weight }

// OutDims returns the cached convolution geometry (valid after Forward).
func (c *Conv2D) OutDims() (tensor.ConvDims, bool) { return c.dims, c.haveDims }
