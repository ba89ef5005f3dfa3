package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackedTransBMatchesScalar verifies PackTransB + MatMulTransBPackedSlice
// against the scalar A·Bᵀ kernel on the raw operand, bitwise, over shapes
// with remainder rows (m not a multiple of 4) and remainder columns (n not
// a multiple of 16).
func TestPackedTransBMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 13, 64, 100} {
		for _, k := range []int{1, 3, 4, 9, 27, 144} {
			for _, n := range []int{1, 2, 8, 15, 16, 17, 32, 33, 64} {
				a := make([]float32, m*k)
				b := make([]float32, n*k)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range b {
					b[i] = float32(rng.NormFloat64())
				}
				bp := make([]float32, n*k)
				PackTransB(bp, b, n, k)
				want := make([]float32, m*n)
				got := make([]float32, m*n)
				matmulTransBRowsScalar(want, a, b, 0, m, k, n)
				MatMulTransBPackedSlice(got, a, bp, m, k, n)
				for i := range want {
					if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
						t.Fatalf("m=%d k=%d n=%d: C[%d] packed %x scalar %x",
							m, k, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestCol2ImLDMatchesCol2Im embeds a (colRows, cols) gradient matrix in a
// wider (colRows, ld) buffer and checks the strided scatter reproduces the
// contiguous one bit for bit, for stride-1 and strided/padded geometries.
func TestCol2ImLDMatchesCol2Im(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	geoms := []ConvDims{
		NewConvDims(3, 9, 7, 4, 3, 1, 1),
		NewConvDims(2, 8, 8, 3, 3, 2, 1),
		NewConvDims(1, 11, 5, 2, 5, 1, 2),
	}
	for _, d := range geoms {
		colRows := d.InC * d.K * d.K
		cols := d.OutH * d.OutW
		ld := cols*3 + 5
		wide := make([]float32, colRows*ld)
		for i := range wide {
			wide[i] = float32(rng.NormFloat64())
		}
		narrow := make([]float32, colRows*cols)
		off := cols + 2 // image slice starts mid-buffer
		for r := 0; r < colRows; r++ {
			copy(narrow[r*cols:(r+1)*cols], wide[r*ld+off:r*ld+off+cols])
		}
		want := make([]float32, d.InC*d.H*d.W)
		got := make([]float32, d.InC*d.H*d.W)
		Col2Im(want, narrow, d)
		Col2ImLD(got, wide[off:], d, ld)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("geom %+v: dx[%d] ld %x contiguous %x", d, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}
