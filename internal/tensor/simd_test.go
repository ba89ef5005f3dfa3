package tensor

import (
	"math"
	"math/rand"
	"testing"

	"spatl/internal/testutil"
)

// TestAVX2PanelMatchesScalar drives the vector and scalar A·Bᵀ panel
// kernels over awkward shapes (remainder rows, remainder columns, tiny k)
// and demands bitwise-identical outputs. On machines without AVX2 the
// vector path aliases the scalar one and the test degenerates to a
// self-check.
func TestAVX2PanelMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Log("AVX2 unavailable; vector path aliases scalar path")
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 3, 4, 5, 9, 16} {
		for _, k := range []int{1, 4, 7, 17, 144} {
			for _, n := range []int{1, 8, 15, 16, 17, 31, 32, 47, 256} {
				a := make([]float32, m*k)
				b := make([]float32, n*k)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range b {
					b[i] = float32(rng.NormFloat64())
				}
				want := make([]float32, m*n)
				got := make([]float32, m*n)
				matmulTransBRowsScalar(want, a, b, 0, m, k, n)
				matmulTransBRowsAVX2(got, a, b, 0, m, k, n)
				for i := range want {
					if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
						t.Fatalf("m=%d k=%d n=%d: C[%d] vector %x scalar %x",
							m, k, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestAVX2PanelPartialRows exercises lo/hi windows that do not start at
// row zero, as produced by Parallel sharding.
func TestAVX2PanelPartialRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 13, 21, 40
	a := make([]float32, m*k)
	b := make([]float32, n*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	for _, win := range [][2]int{{0, 13}, {2, 9}, {5, 6}, {3, 13}} {
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		matmulTransBRowsScalar(want, a, b, win[0], win[1], k, n)
		matmulTransBRowsAVX2(got, a, b, win[0], win[1], k, n)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("window %v: C[%d] vector %x scalar %x",
					win, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestMatMulSegAccMatchesScalar accumulates the segmented-k product into a
// nonzero C through the AVX2 tile path and the scalar path and demands
// bitwise-identical results: remainder rows (m not a multiple of 4),
// remainder columns (n not a multiple of 16, served by the zero-padded
// panel), single-element segments (1×1 feature maps), k long enough to
// cross a segBlockK block boundary, and a segment length (36, a 6×6 map)
// that does not divide segBlockK. The parallel entry point must give the
// same bits at every forced GOMAXPROCS.
func TestMatMulSegAccMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Log("AVX2 unavailable; vector path aliases scalar path")
	}
	rng := rand.New(rand.NewSource(13))
	fill := func(x []float32) {
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
	}
	for _, seg := range []int{1, 2, 4, 16, 36, 64, 256} {
		for _, nseg := range []int{2, segBlockK/seg + 2} {
			k := seg * nseg
			for _, n := range []int{1, 15, 16, 27, 36, 72, 1152} {
				for _, m := range []int{1, 3, 4, 5, 17} {
					if k > segBlockK && (n > 72 || m < 5) {
						continue // one long-k case per shape class keeps -race fast
					}
					a := make([]float32, m*k)
					b := make([]float32, k*n)
					c0 := make([]float32, m*n)
					fill(a)
					fill(b)
					fill(c0)
					want := append([]float32(nil), c0...)
					got := append([]float32(nil), c0...)
					matmulSegAccScalar(want, a, b, 0, m, k, n, seg, 0, n)
					matmulSegAccAVX2(got, a, b, m, k, n, seg, 0, n)
					for i := range want {
						if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
							t.Fatalf("seg=%d k=%d n=%d m=%d: C[%d] vector %x scalar %x",
								seg, k, n, m, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
					if n != 72 || m != 17 {
						continue
					}
					testutil.ForEachProcs(t, func(procs int) {
						par := append([]float32(nil), c0...)
						MatMulSegAccSlice(par, a, b, m, k, n, seg)
						for i := range want {
							if math.Float32bits(want[i]) != math.Float32bits(par[i]) {
								t.Fatalf("GOMAXPROCS=%d seg=%d k=%d: C[%d] parallel %x scalar %x",
									procs, seg, k, i, math.Float32bits(par[i]), math.Float32bits(want[i]))
							}
						}
					})
				}
			}
		}
	}
}
