//go:build !amd64

package tensor

// Non-amd64 builds have no vector kernel; the scalar panel path runs
// everywhere.
const useAVX2 = false

func matmulTransBRowsAVX2(c, a, b []float32, lo, hi, k, n int) {
	matmulTransBRowsScalar(c, a, b, lo, hi, k, n)
}

func matmulSegAccAVX2(c, a, b []float32, m, k, n, seg, jlo, jhi int) {
	matmulSegAccScalar(c, a, b, 0, m, k, n, seg, jlo, jhi)
}
