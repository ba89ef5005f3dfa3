package tensor

import "fmt"

// parallelThreshold is the number of output elements above which MatMul
// shards rows across goroutines. Below it the sequential kernel wins.
const parallelThreshold = 64 * 64

// mrBlock is the register-blocking factor: the dense micro-kernels compute
// this many output rows at once so each streamed element of the other
// operand feeds mrBlock independent FMA chains.
const mrBlock = 4

// ncBlock is the cache-blocking width: for very wide outputs the j range is
// processed in panels of this size so the mrBlock accumulator rows stay
// resident in L1 across the whole k loop.
const ncBlock = 1024

// sparseThreshold is the zero fraction of the left operand above which the
// branchy zero-skipping kernel beats the dense blocked kernel. SPATL's
// salient-parameter masks zero out whole filters, so pruned weights cross
// this easily; dense activations and gradients stay well below it.
const sparseThreshold = 0.45

// sparseSample caps how many elements of the left operand the sparsity
// probe inspects, keeping the probe O(1) relative to the multiply itself.
const sparseSample = 1024

// MatMul computes C = A·B for A of shape (m,k) and B of shape (k,n),
// returning a new (m,n) tensor. Rows of C are computed in parallel when
// the problem is large enough; each row is owned by exactly one goroutine
// so the result is deterministic.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A·B into an existing output tensor, avoiding an
// allocation. C must have shape (m,n).
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch C%v = A%v x B%v", c.shape, a.shape, b.shape))
	}
	if isSparse(a.Data) {
		if m*n >= parallelThreshold && m > 1 {
			Parallel(m, func(lo, hi int) {
				matmulRowsSparse(c.Data, a.Data, b.Data, lo, hi, k, n)
			})
			return
		}
		matmulRowsSparse(c.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	if m < packMinRows {
		matmulRowsBlocked(c.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	// Pack Bᵀ once so the register-tiled dot kernel streams both operands
	// contiguously; the packing cost is O(k·n) against O(m·k·n) compute.
	bt := GetScratch(n * k)
	TransposeSlice(bt, b.Data, k, n)
	if m*n >= parallelThreshold && m > 1 {
		Parallel(m, func(lo, hi int) {
			matmulTransBRows(c.Data, a.Data, bt, lo, hi, k, n)
		})
	} else {
		matmulTransBRows(c.Data, a.Data, bt, 0, m, k, n)
	}
	PutScratch(bt)
}

// MatMulSlice computes C = A·B on raw row-major slices without shape
// checks or parallel dispatch: A is (m,k), B is (k,n), C is (m,n) and is
// fully overwritten. It picks the sparse-aware kernel automatically when
// the left operand is mostly zeros (pruned/masked weights). Intended for
// callers that manage their own parallelism (e.g. per-image convolution
// lowering inside a Parallel region).
func MatMulSlice(c, a, b []float32, m, k, n int) {
	if isSparse(a[:m*k]) {
		matmulRowsSparse(c, a, b, 0, m, k, n)
		return
	}
	if m < packMinRows {
		matmulRowsBlocked(c, a, b, 0, m, k, n)
		return
	}
	bt := GetScratch(n * k)
	TransposeSlice(bt, b, k, n)
	matmulTransBRows(c, a, bt, 0, m, k, n)
	PutScratch(bt)
}

// packMinRows is the output-row count below which packing Bᵀ for the dot
// kernel cannot amortize: tiny products fall back to the streaming axpy
// kernel, which needs no scratch.
const packMinRows = 8

// TransposeSlice writes src (rows,cols) into dst as its (cols,rows)
// transpose, tiling the traversal so both sides stay cache-resident. Within
// a tile, four source rows are read together so each destination row gets a
// contiguous 4-element write, halving the per-element overhead of the
// scattered side. It is the packing primitive behind the dense matmul paths.
func TransposeSlice(dst, src []float32, rows, cols int) {
	const tb = 32
	for jj := 0; jj < cols; jj += tb {
		je := jj + tb
		if je > cols {
			je = cols
		}
		for ii := 0; ii < rows; ii += tb {
			ie := ii + tb
			if ie > rows {
				ie = rows
			}
			i := ii
			for ; i+4 <= ie; i += 4 {
				s0 := src[(i+0)*cols : (i+0)*cols+cols]
				s1 := src[(i+1)*cols : (i+1)*cols+cols]
				s2 := src[(i+2)*cols : (i+2)*cols+cols]
				s3 := src[(i+3)*cols : (i+3)*cols+cols]
				for j := jj; j < je; j++ {
					d := dst[j*rows+i : j*rows+i+4]
					d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
				}
			}
			for ; i < ie; i++ {
				row := src[i*cols : i*cols+cols]
				for j := jj; j < je; j++ {
					dst[j*rows+i] = row[j]
				}
			}
		}
	}
}

// matmulRowsBlocked computes rows [lo,hi) of C = A·B with a register-tiled
// ikj kernel: mrBlock rows of A are processed together so every element of
// a streamed B row feeds mrBlock independent accumulator chains, and wide
// outputs are cache-blocked into ncBlock-column panels. Accumulation order
// over k is ascending for every output element, matching the reference
// implementation bit for bit.
func matmulRowsBlocked(c, a, b []float32, lo, hi, k, n int) {
	for jb := 0; jb < n; jb += ncBlock {
		jw := n - jb
		if jw > ncBlock {
			jw = ncBlock
		}
		i := lo
		for ; i+mrBlock <= hi; i += mrBlock {
			a0 := a[(i+0)*k : (i+0)*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			c0 := c[(i+0)*n+jb:][:jw]
			c1 := c[(i+1)*n+jb:][:jw]
			c2 := c[(i+2)*n+jb:][:jw]
			c3 := c[(i+3)*n+jb:][:jw]
			for x := range c0 {
				c0[x] = 0
			}
			for x := range c1 {
				c1[x] = 0
			}
			for x := range c2 {
				c2[x] = 0
			}
			for x := range c3 {
				c3[x] = 0
			}
			for p := 0; p < k; p++ {
				bp := b[p*n+jb:][:jw]
				v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
				c0 := c0[:len(bp)]
				c1 := c1[:len(bp)]
				c2 := c2[:len(bp)]
				c3 := c3[:len(bp)]
				for j, bv := range bp {
					c0[j] += v0 * bv
					c1[j] += v1 * bv
					c2[j] += v2 * bv
					c3[j] += v3 * bv
				}
			}
		}
		for ; i < hi; i++ {
			ai := a[i*k : i*k+k]
			ci := c[i*n+jb:][:jw]
			for x := range ci {
				ci[x] = 0
			}
			for p, av := range ai {
				bp := b[p*n+jb:][:jw]
				ci := ci[:len(bp)]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// MatMulSparseSlice computes C = A·B with the zero-skipping row kernel,
// unconditionally — for callers that have already probed the operand once
// (e.g. a conv layer deciding its lowering strategy per minibatch) and
// would otherwise pay the sparsity sample on every GEMM call.
func MatMulSparseSlice(c, a, b []float32, m, k, n int) {
	matmulRowsSparse(c, a, b, 0, m, k, n)
}

// MatMulTransASparseSlice computes C = Aᵀ·B (A is (k,m), B (k,n)) with the
// zero-skipping column kernel, unconditionally; see MatMulSparseSlice.
func MatMulTransASparseSlice(c, a, b []float32, m, k, n int) {
	matmulTransAColsSparse(c, a, b, 0, m, m, k, n)
}

// matmulRowsSparse is the zero-skipping row kernel retained for sparse
// left operands (SPATL salient-parameter masks zero whole filters): it
// pays a branch per A element to skip entire B-row passes.
func matmulRowsSparse(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		ai := a[i*k : i*k+k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			// VecAxpy keeps the separate multiply-then-add of the scalar
			// loop; each output element still accumulates surviving B rows
			// in ascending-p order.
			VecAxpy(ci, b[p*n:p*n+n], av)
		}
	}
}

// IsSparse reports whether a strided sample of x is mostly zeros — the
// same probe the matmul entry points use to pick the zero-skipping kernel.
// Exposed so layers can choose a lowering strategy once per call instead
// of once per image.
func IsSparse(x []float32) bool { return isSparse(x) }

// isSparse reports whether a strided sample of x is mostly zeros.
func isSparse(x []float32) bool {
	if len(x) == 0 {
		return false
	}
	step := len(x) / sparseSample
	if step < 1 {
		step = 1
	}
	zeros, seen := 0, 0
	for i := 0; i < len(x); i += step {
		if x[i] == 0 {
			zeros++
		}
		seen++
	}
	return float32(zeros) >= sparseThreshold*float32(seen)
}

// MatMulTransB computes C = A·Bᵀ for A (m,k) and B (n,k) into a new (m,n)
// tensor. Used for backprop through linear layers without materializing
// transposes.
func MatMulTransB(a, b *Tensor) *Tensor {
	m := a.Dim(0)
	n := b.Dim(0)
	c := New(m, n)
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes C = A·Bᵀ into an existing (m,n) output tensor,
// avoiding an allocation.
func MatMulTransBInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	if m*n >= parallelThreshold && m > 1 {
		Parallel(m, func(lo, hi int) {
			matmulTransBRows(c.Data, a.Data, b.Data, lo, hi, k, n)
		})
		return
	}
	matmulTransBRows(c.Data, a.Data, b.Data, 0, m, k, n)
}

// MatMulTransBSlice computes C = A·Bᵀ on raw slices (A (m,k), B (n,k),
// C (m,n) overwritten), serial, without shape checks.
func MatMulTransBSlice(c, a, b []float32, m, k, n int) {
	matmulTransBRows(c, a, b, 0, m, k, n)
}

// MatMulSegAccSlice computes C += A·B where A is row-major (m,k), B is
// row-major (k,n), C is (m,n) and k is split into k/seg consecutive
// segments. Each segment's dot product is formed from zero in
// ascending-k order and then added to the running C element, segment
// by segment in ascending order:
//
//	C[i][j] = ((C[i][j] + Σ_{p∈seg 0} A[i][p]·B[p][j]) + Σ_{p∈seg 1} …) + …
//
// This is the convolution weight-gradient reduction dW += Σᵢ gᵢ·colᵢᵀ
// over a group of images: A holds the group's output gradients
// channel-major with one seg-wide block per image, B is the patch-major
// lowering read in place, and each image's product joins the running
// total in image order. Output columns are split over the worker pool in
// 16-wide panels, each owned by one goroutine, so the result depends on
// the operands alone and never on GOMAXPROCS.
func MatMulSegAccSlice(c, a, b []float32, m, k, n, seg int) {
	if seg <= 0 || k%seg != 0 {
		panic(fmt.Sprintf("tensor: MatMulSegAccSlice segment %d does not divide k=%d", seg, k))
	}
	Parallel((n+15)/16, func(lo, hi int) {
		jhi := hi * 16
		if jhi > n {
			jhi = n
		}
		if useAVX2 {
			matmulSegAccAVX2(c, a, b, m, k, n, seg, lo*16, jhi)
			return
		}
		matmulSegAccScalar(c, a, b, 0, m, k, n, seg, lo*16, jhi)
	})
}

// segBlockK bounds how many k rows of one 16-column B panel the AVX2
// segmented tile reads in one pass over the 4-row tiles of A (~64 KiB),
// so the panel stays cache-resident while every tile streams against it.
// Blocks hold whole segments and run in ascending order, so blocking never
// reorders an accumulation chain.
const segBlockK = 1024

// matmulSegAccScalar computes rows [ilo,ihi) and columns [jlo,jhi) of
// MatMulSegAccSlice in pure Go. It is the fallback and the reference for
// the AVX2 tile: each segment's partials are built in a 16-wide row, one
// ascending-k chain per column, and then added to C.
func matmulSegAccScalar(c, a, b []float32, ilo, ihi, k, n, seg, jlo, jhi int) {
	var part [16]float32
	for j0 := jlo; j0 < jhi; j0 += 16 {
		j1 := j0 + 16
		if j1 > jhi {
			j1 = jhi
		}
		pt := part[:j1-j0]
		for i := ilo; i < ihi; i++ {
			ai := a[i*k : i*k+k]
			ci := c[i*n+j0 : i*n+j1]
			for s := 0; s < k; s += seg {
				for j := range pt {
					pt[j] = 0
				}
				for p := s; p < s+seg; p++ {
					av := ai[p]
					bp := b[p*n+j0 : p*n+j1]
					for j, bv := range bp {
						pt[j] += av * bv
					}
				}
				for j, v := range pt {
					ci[j] += v
				}
			}
		}
	}
}

// jcPanel is the column-panel width of the dot kernel: B rows are consumed
// in panels of this many output columns across all output rows, so a panel
// (jcPanel·k floats) stays L1-resident instead of the whole of B streaming
// from L2 once per row pair.
const jcPanel = 32

// matmulTransBRows computes rows [lo,hi) of C = A·Bᵀ. On CPUs with AVX2
// it dispatches to the vector tile kernel; both paths form each output as
// one ascending-k dot-product chain, so the choice never changes a single
// bit of the result. The scalar path uses a
// 2×4 register tile: two rows of A against four rows of B give eight
// independent dot-product accumulators per pass, amortizing every operand
// load across multiple FMAs.
func matmulTransBRows(c, a, b []float32, lo, hi, k, n int) {
	if useAVX2 && hi-lo >= 4 && k >= 4 {
		matmulTransBRowsAVX2(c, a, b, lo, hi, k, n)
		return
	}
	matmulTransBRowsScalar(c, a, b, lo, hi, k, n)
}

// matmulTransBRowsScalar is the portable panel loop behind matmulTransBRows.
func matmulTransBRowsScalar(c, a, b []float32, lo, hi, k, n int) {
	for jj := 0; jj < n; jj += jcPanel {
		jhi := jj + jcPanel
		if jhi > n {
			jhi = n
		}
		matmulTransBRowsPanel(c, a, b, lo, hi, jj, jhi, k, n)
	}
}

// matmulTransBRowsPanel is the register-tiled core of matmulTransBRows for
// output columns [jlo,jhi).
func matmulTransBRowsPanel(c, a, b []float32, lo, hi, jlo, jhi, k, n int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			a1 := a1[:len(a0)]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			for p, v0 := range a0 {
				v1 := a1[p]
				w0, w1, w2, w3 := b0[p], b1[p], b2[p], b3[p]
				s00 += v0 * w0
				s01 += v0 * w1
				s02 += v0 * w2
				s03 += v0 * w3
				s10 += v1 * w0
				s11 += v1 * w1
				s12 += v1 * w2
				s13 += v1 * w3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < jhi; j++ {
			bj := b[j*k : j*k+k]
			var s0, s1 float32
			a0 := a0[:len(bj)]
			a1 := a1[:len(bj)]
			for p, bv := range bj {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
			}
			c0[j] = s0
			c1[j] = s1
		}
	}
	for ; i < hi; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		for j := jlo; j < jhi; j++ {
			bj := b[j*k : j*k+k]
			var s float32
			ai := ai[:len(bj)]
			for p, bv := range bj {
				s += ai[p] * bv
			}
			ci[j] = s
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A (k,m) and B (k,n) into a new (m,n)
// tensor.
func MatMulTransA(a, b *Tensor) *Tensor {
	m := a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes C = Aᵀ·B into an existing (m,n) output tensor,
// avoiding an allocation.
func MatMulTransAInto(c, a, b *Tensor) {
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch C%v = A%vᵀ x B%v", c.shape, a.shape, b.shape))
	}
	if isSparse(a.Data) {
		if m*n >= parallelThreshold && m > 1 {
			Parallel(m, func(lo, hi int) {
				matmulTransAColsSparse(c.Data, a.Data, b.Data, lo, hi, m, k, n)
			})
			return
		}
		matmulTransAColsSparse(c.Data, a.Data, b.Data, 0, m, m, k, n)
		return
	}
	if m < packMinRows {
		matmulTransACols(c.Data, a.Data, b.Data, 0, m, m, k, n)
		return
	}
	// Pack both operands so the dot kernel streams contiguously: Aᵀ so
	// output rows read a contiguous k-vector, Bᵀ so output columns do.
	at := GetScratch(m * k)
	TransposeSlice(at, a.Data, k, m)
	bt := GetScratch(n * k)
	TransposeSlice(bt, b.Data, k, n)
	if m*n >= parallelThreshold && m > 1 {
		Parallel(m, func(lo, hi int) {
			matmulTransBRows(c.Data, at, bt, lo, hi, k, n)
		})
	} else {
		matmulTransBRows(c.Data, at, bt, 0, m, k, n)
	}
	PutScratch(bt)
	PutScratch(at)
}

// MatMulTransASlice computes C = Aᵀ·B on raw slices (A (k,m), B (k,n),
// C (m,n) overwritten), serial, without shape checks. Sparse left operands
// (pruned weights) are detected automatically.
func MatMulTransASlice(c, a, b []float32, m, k, n int) {
	if isSparse(a[:k*m]) {
		matmulTransAColsSparse(c, a, b, 0, m, m, k, n)
		return
	}
	if m < packMinRows {
		matmulTransACols(c, a, b, 0, m, m, k, n)
		return
	}
	at := GetScratch(m * k)
	TransposeSlice(at, a, k, m)
	bt := GetScratch(n * k)
	TransposeSlice(bt, b, k, n)
	matmulTransBRows(c, at, bt, 0, m, k, n)
	PutScratch(bt)
	PutScratch(at)
}

// matmulTransACols computes output rows [lo,hi) of C = Aᵀ·B. Output row i
// corresponds to column i of A, so four adjacent columns load as one
// contiguous 4-element read per k step while a B row streams through four
// accumulator rows — the same register tiling as the main kernel.
func matmulTransACols(c, a, b []float32, lo, hi, m, k, n int) {
	i := lo
	for ; i+mrBlock <= hi; i += mrBlock {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for x := range c0 {
			c0[x] = 0
		}
		for x := range c1 {
			c1[x] = 0
		}
		for x := range c2 {
			c2[x] = 0
		}
		for x := range c3 {
			c3[x] = 0
		}
		for p := 0; p < k; p++ {
			ap := a[p*m+i : p*m+i+4]
			v0, v1, v2, v3 := ap[0], ap[1], ap[2], ap[3]
			bp := b[p*n : p*n+n]
			c0 := c0[:len(bp)]
			c1 := c1[:len(bp)]
			c2 := c2[:len(bp)]
			c3 := c3[:len(bp)]
			for j, bv := range bp {
				c0[j] += v0 * bv
				c1[j] += v1 * bv
				c2[j] += v2 * bv
				c3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			bp := b[p*n : p*n+n]
			ci := ci[:len(bp)]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// matmulTransAColsSparse is the zero-skipping variant of matmulTransACols
// for sparse left operands.
func matmulTransAColsSparse(c, a, b []float32, lo, hi, m, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			// Same separate multiply-then-add chain as the scalar loop,
			// ascending-p accumulation per output element.
			VecAxpy(ci, b[p*n:p*n+n], av)
		}
	}
}
