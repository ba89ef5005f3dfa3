package nn

import (
	"fmt"
	"math/rand"
	"runtime"

	"spatl/internal/tensor"
)

// Conv2D is a 2D convolution with square kernels, shared stride/padding on
// both axes and optional bias. Forward lowers each image to a column
// matrix (im2col) and multiplies by the filter matrix; backward recomputes
// the columns rather than caching them, trading FLOPs for memory.
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
				tensor.MatMulTransBPackedSlice(t, colB, wp, gn*cols, colRows, c.OutC, false)
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

// Backward implements Layer.
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

	// dx = col2im(Wᵀ · g) is batch-fused like the forward pass: per image
	// group, the output gradients are transposed patch-major into one wide
	// (G·cols, OutC) matrix, a single GEMM forms the lowered input
	// gradient dcolB = Wᵀ · gᵀ for the whole group, and Col2ImLD scatters
	// each image's slice straight out of the wide buffer. The cached Wᵀ
	// replaces the per-image transpose MatMulTransASlice used to build.
	// dW stays per-image (dot-then-add per image, shards merged in fixed
	// order) so its accumulation grouping — and hence rounding — is
	// untouched. Sparse (pruned) weights skip the transpose cache and run
	// the zero-skipping Wᵀ·g over the same wide group buffer instead.
	sparseW := tensor.IsSparse(c.weight.W.Data)
	var wt []float32
	if !sparseW {
		wt = c.wtrans.get(c.weight.W, colRows*c.OutC, func(dst []float32) {
			tensor.TransposeSlice(dst, c.weight.W.Data, c.OutC, colRows)
		})
	}

	// Shard the batch; each shard accumulates its own dW (and db) in
	// scratch buffers, then shards are summed in fixed order so results
	// are deterministic for a fixed shard count.
	type shard struct {
		dw []float32
		db []float64
	}
	nw := parallelShards(n)
	shards := make([]shard, nw)
	chunk := (n + nw - 1) / nw
	tensor.Parallel(nw, func(slo, shi int) {
		for s := slo; s < shi; s++ {
			lo, hi := s*chunk, (s+1)*chunk
			if hi > n {
				hi = n
			}
			sh := shard{dw: tensor.GetScratch(c.OutC * colRows)}
			for i := range sh.dw {
				sh.dw[i] = 0
			}
			if c.useBias {
				sh.db = make([]float64, c.OutC)
			}
			col := tensor.GetScratch(colRows * cols)
			for glo := lo; glo < hi; glo += fusedGroup(hi-glo, colRows*cols) {
				gn := fusedGroup(hi-glo, colRows*cols)
				wide := gn * cols
				dcolB := tensor.GetScratch(colRows * wide)
				if sparseW {
					// Sparse weights: lay the group's output gradients side
					// by side channel-major (no transpose needed) and run
					// the zero-skipping Wᵀ·g once over the whole group, so
					// each surviving weight's axpy spans G·cols columns.
					giB := tensor.GetScratch(c.OutC * wide)
					for i := glo; i < glo+gn; i++ {
						gi := dout.Data[i*outStride : (i+1)*outStride]
						for oc := 0; oc < c.OutC; oc++ {
							copy(giB[oc*wide+(i-glo)*cols:][:cols], gi[oc*cols:(oc+1)*cols])
						}
					}
					tensor.MatMulTransASparseSlice(dcolB, c.weight.W.Data, giB, colRows, c.OutC, wide)
					tensor.PutScratch(giB)
				} else {
					giT := tensor.GetScratch(wide * c.OutC)
					for i := glo; i < glo+gn; i++ {
						tensor.TransposeSlice(giT[(i-glo)*cols*c.OutC:][:cols*c.OutC],
							dout.Data[i*outStride:(i+1)*outStride], c.OutC, cols)
					}
					// dcolB[r][i·cols+j] = dot(Wᵀ row r, gᵀ patch row) — the
					// same ascending-OutC chain as the per-image Wᵀ·g.
					tensor.MatMulTransBSlice(dcolB, wt, giT, colRows, c.OutC, wide)
					tensor.PutScratch(giT)
				}
				for i := glo; i < glo+gn; i++ {
					tensor.Im2Col(col, x.Data[i*inStride:(i+1)*inStride], d)
					gi := dout.Data[i*outStride : (i+1)*outStride]
					// dW += gi · colᵀ, accumulated straight into the shard
					// buffer (each dot product is still formed in ascending-k
					// order before the single add, matching the old
					// materialize-then-add rounding).
					tensor.MatMulTransBAccSlice(sh.dw, gi, col, c.OutC, cols, colRows)
					// Col2ImLD accumulates, so the reused image slice is
					// zeroed first.
					dxi := dx.Data[i*inStride : (i+1)*inStride]
					for j := range dxi {
						dxi[j] = 0
					}
					tensor.Col2ImLD(dxi, dcolB[(i-glo)*cols:], d, wide)
					if c.useBias {
						for oc := 0; oc < c.OutC; oc++ {
							var s float64
							row := gi[oc*cols : (oc+1)*cols]
							for _, v := range row {
								s += float64(v)
							}
							sh.db[oc] += s
						}
					}
				}
				tensor.PutScratch(dcolB)
			}
			tensor.PutScratch(col)
			shards[s] = sh
		}
	})
	for _, sh := range shards {
		if sh.dw == nil {
			continue
		}
		g := c.weight.G.Data
		for i, v := range sh.dw {
			g[i] += v
		}
		tensor.PutScratch(sh.dw)
		if c.useBias {
			for oc, v := range sh.db {
				c.bias.G.Data[oc] += float32(v)
			}
		}
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

// parallelShards picks a shard count for deterministic batched gradient
// accumulation: one shard per available core, but never more shards than
// images so small batches are not over-sharded. Results are deterministic
// for a fixed GOMAXPROCS (shard boundaries fix the summation grouping).
func parallelShards(n int) int {
	p := runtime.GOMAXPROCS(0)
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}
