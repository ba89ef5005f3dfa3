package tensor

// Packed-operand support for the A·Bᵀ kernel. The AVX2 tile consumes B
// in element-interleaved 16-row panels (bp[p*16+j] = B[j][p]); packing is
// O(n·k) work the plain entry points repeat on every call. PackTransB
// materializes that layout once so callers with a stable B — layer
// weights reused across a whole minibatch and across batches until the
// optimizer steps — can amortize the packing through a cache (see
// internal/nn's panel cache keyed on the Param generation counter).
//
// The packed buffer is exactly n·k floats: full 16-row groups in
// interleaved panel order, then any remainder rows in their original
// row-major layout (so absolute row indexing still works for the scalar
// remainder kernel). On CPUs without AVX2 — or shapes the vector kernel
// rejects — the "packed" layout is defined as a plain row-major copy and
// the packed multiply runs the scalar panel kernel over it, keeping the
// format an internal detail of this file.

// packedTransBWants reports whether the interleaved panel layout is in
// effect for a B of n rows × k columns. Must agree with the dispatch in
// MatMulTransBPackedRows.
func packedTransBWants(n, k int) bool {
	return useAVX2 && n >= 16 && k >= 4
}

// PackedTransBWants reports whether packing B (n rows × k cols) engages
// the vector panel kernel. Callers that can choose which operand plays B
// (e.g. the convolution lowering, where out = patches·Wᵀ and
// outᵀ = W·patchesᵀ are bitwise-interchangeable) use this to avoid
// electing a B too narrow for the 16-row tile, which would demote the
// whole product to the scalar kernel.
func PackedTransBWants(n, k int) bool { return packedTransBWants(n, k) }

// PackTransB writes the packed form of B (n rows × k cols, row-major)
// into dst, which must hold at least n*k floats.
func PackTransB(dst, b []float32, n, k int) {
	if !packedTransBWants(n, k) {
		copy(dst[:n*k], b[:n*k])
		return
	}
	jj := 0
	for ; jj+16 <= n; jj += 16 {
		seg := dst[jj*k : jj*k+16*k]
		for j := 0; j < 16; j++ {
			row := b[(jj+j)*k : (jj+j)*k+k]
			for p, v := range row {
				seg[p*16+j] = v
			}
		}
	}
	if jj < n {
		copy(dst[jj*k:n*k], b[jj*k:n*k])
	}
}

// MatMulTransBPackedSlice computes C = A·Bᵀ where bp is the PackTransB
// image of B (n rows × k cols). A is (m,k) row-major, C is (m,n). Bitwise
// identical to MatMulTransBSlice on the unpacked B: every output element
// is one ascending-k dot-product chain with separate multiply and add.
func MatMulTransBPackedSlice(c, a, bp []float32, m, k, n int) {
	matmulTransBPackedRows(c, a, bp, 0, m, k, n)
}

// MatMulTransBPackedParallel computes C = A·Bᵀ from the packed image of
// B, sharding output rows across the worker pool like MatMulTransBInto.
// Row sharding never splits a dot-product chain, so the shard count does
// not affect results.
func MatMulTransBPackedParallel(c, a, bp []float32, m, k, n int) {
	if m*n >= parallelThreshold && m > 1 {
		Parallel(m, func(lo, hi int) {
			matmulTransBPackedRows(c, a, bp, lo, hi, k, n)
		})
		return
	}
	matmulTransBPackedRows(c, a, bp, 0, m, k, n)
}

// matmulTransBPackedRows is the row-window core behind the packed entry
// point, usable inside Parallel row shards.
func matmulTransBPackedRows(c, a, bp []float32, lo, hi, k, n int) {
	if !packedTransBWants(n, k) {
		matmulTransBRowsScalar(c, a, bp, lo, hi, k, n)
		return
	}
	var out [64]float32
	jj := 0
	for ; jj+16 <= n; jj += 16 {
		seg := bp[jj*k : jj*k+16*k]
		i := lo
		for ; i+4 <= hi; i += 4 {
			avx2DotPanel4x16(&a[i*k], k, &seg[0], k, &out[0])
			for r := 0; r < 4; r++ {
				copy(c[(i+r)*n+jj:(i+r)*n+jj+16], out[r*16:r*16+16])
			}
		}
		if i < hi {
			packedPanelScalar(c, a, seg, i, hi, jj, k, n)
		}
	}
	if jj < n {
		// Remainder rows sit row-major at their original offsets, so the
		// plain scalar panel kernel applies unchanged.
		matmulTransBRowsPanel(c, a, bp, lo, hi, jj, n, k, n)
	}
}

// packedPanelScalar handles remainder A rows against one interleaved
// 16-row panel: the dot product reads bp with stride 16 but still runs in
// ascending-k order, so it matches the vector tile bit for bit.
func packedPanelScalar(c, a, seg []float32, lo, hi, jj, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n+jj : i*n+jj+16]
		for j := 0; j < 16; j++ {
			var s float32
			for p, av := range ai {
				s += av * seg[p*16+j]
			}
			ci[j] = s
		}
	}
}
