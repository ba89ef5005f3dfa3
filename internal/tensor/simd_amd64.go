package tensor

// AVX2 acceleration for the dense A·Bᵀ panel kernel and the segmented-k
// A·B accumulation. The vector paths compute every output element as the
// same ascending-k dot-product chains as the scalar kernels (multiply then
// add, no FMA contraction), so the paths are bitwise interchangeable;
// which one runs is purely a performance decision made at startup from
// CPUID.

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

//go:noescape
func avx2DotPanel4x16(a *float32, lda int, bp *float32, k int, out *float32)

//go:noescape
func avx2SegPanel4x16(a *float32, lda int, b *float32, ldb int, k, seg int, c *float32, ldc int)

// useAVX2 reports whether the CPU and OS support AVX2 with YMM state
// saving (CPUID leaf 7 AVX2, plus OSXSAVE and XCR0 XMM|YMM bits).
var useAVX2 = func() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0
}()

// matmulTransBRowsAVX2 computes rows [lo,hi) of C = A·Bᵀ using the AVX2
// tile kernel. B columns are consumed in groups of 16: the group is packed
// element-interleaved (bp[p*16+j] = B[j][p]) so the kernel streams two
// contiguous 8-float loads per k step, then 4-row tiles of A are reduced
// against the packed panel. A last group of fewer than 16 columns is
// packed with zero lanes whose results are dropped. Remainder rows fall
// back to the scalar panel kernel, which produces bitwise-identical values.
func matmulTransBRowsAVX2(c, a, b []float32, lo, hi, k, n int) {
	bp := GetScratch(16 * k)
	var out [64]float32
	for jj := 0; jj < n; jj += 16 {
		w := n - jj
		if w > 16 {
			w = 16
		}
		for j := 0; j < w; j++ {
			row := b[(jj+j)*k : (jj+j)*k+k]
			for p, v := range row {
				bp[p*16+j] = v
			}
		}
		if w < 16 {
			for p := 0; p < k; p++ {
				clear(bp[p*16+w : p*16+16])
			}
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			avx2DotPanel4x16(&a[i*k], k, &bp[0], k, &out[0])
			for r := 0; r < 4; r++ {
				copy(c[(i+r)*n+jj:(i+r)*n+jj+w], out[r*16:r*16+w])
			}
		}
		if i < hi {
			matmulTransBRowsPanel(c, a, b, i, hi, jj, jj+w, k, n)
		}
	}
	PutScratch(bp)
}

// matmulSegAccAVX2 computes columns [jlo,jhi) of MatMulSegAccSlice with
// the AVX2 segmented tile, reading B in place with row stride n. A last
// panel narrower than 16 columns runs the tile over B's final 16 columns
// into a private 4×16 tile of C whose leading lanes (columns owned by the
// previous panel) are dropped; matrices narrower than 16 columns and
// remainder rows take the scalar path. Both form the same chains bit for
// bit.
func matmulSegAccAVX2(c, a, b []float32, m, k, n, seg, jlo, jhi int) {
	if n < 16 {
		matmulSegAccScalar(c, a, b, 0, m, k, n, seg, jlo, jhi)
		return
	}
	kb := segBlockK / seg * seg
	if kb == 0 {
		kb = seg
	}
	var tile [64]float32
	for jj := jlo; jj < jhi; jj += 16 {
		w := n - jj
		if w > 16 {
			w = 16
		}
		off := 16 - w // leading tile lanes that belong to the previous panel
		for k0 := 0; k0 < k; k0 += kb {
			kn := k - k0
			if kn > kb {
				kn = kb
			}
			bp := &b[k0*n+jj-off]
			for i := 0; i+4 <= m; i += 4 {
				if w == 16 {
					avx2SegPanel4x16(&a[i*k+k0], k, bp, n, kn, seg, &c[i*n+jj], n)
					continue
				}
				for r := 0; r < 4; r++ {
					copy(tile[r*16+off:r*16+16], c[(i+r)*n+jj:(i+r)*n+n])
				}
				avx2SegPanel4x16(&a[i*k+k0], k, bp, n, kn, seg, &tile[0], 16)
				for r := 0; r < 4; r++ {
					copy(c[(i+r)*n+jj:(i+r)*n+n], tile[r*16+off:r*16+16])
				}
			}
		}
		if m%4 != 0 {
			matmulSegAccScalar(c, a, b, m&^3, m, k, n, seg, jj, jj+w)
		}
	}
}
