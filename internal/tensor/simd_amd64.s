// AVX2 micro-kernels for the A·Bᵀ panel product and the segmented-k A·B
// accumulation. Each output element is a dot-product accumulator advanced in
// ascending-k order with separate multiply and add (no FMA), so results are
// bitwise identical to the scalar kernels: vectorization is across
// independent output columns, never across k.

#include "textflag.h"

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL	eaxIn+0(FP), AX
	MOVL	ecxIn+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func avx2DotPanel4x16(a *float32, lda int, bp *float32, k int, out *float32)
//
// Computes a 4-row × 16-column tile of dot products against a packed
// B-panel: out[r*16+j] = Σ_p a[r*lda+p] · bp[p*16+j] for r in [0,4),
// j in [0,16). bp interleaves 16 B rows element-by-element so each k step
// is two contiguous 8-float loads. Eight YMM accumulators (4 rows × 2
// halves) give eight independent add chains, hiding VADDPS latency.
TEXT ·avx2DotPanel4x16(SB), NOSPLIT, $0-40
	MOVQ	a+0(FP), SI
	MOVQ	lda+8(FP), AX
	MOVQ	bp+16(FP), BX
	MOVQ	k+24(FP), CX
	MOVQ	out+32(FP), DI

	SHLQ	$2, AX              // row stride in bytes
	LEAQ	(SI)(AX*1), R9      // a row 1
	LEAQ	(R9)(AX*1), R10     // a row 2
	LEAQ	(R10)(AX*1), R11    // a row 3

	VXORPS	Y0, Y0, Y0          // row 0, cols 0-7
	VXORPS	Y1, Y1, Y1          // row 0, cols 8-15
	VXORPS	Y2, Y2, Y2          // row 1, cols 0-7
	VXORPS	Y3, Y3, Y3          // row 1, cols 8-15
	VXORPS	Y4, Y4, Y4          // row 2, cols 0-7
	VXORPS	Y5, Y5, Y5          // row 2, cols 8-15
	VXORPS	Y6, Y6, Y6          // row 3, cols 0-7
	VXORPS	Y7, Y7, Y7          // row 3, cols 8-15

	XORQ	DX, DX              // p = 0
	TESTQ	CX, CX
	JLE	done

loop:
	VMOVUPS	(BX), Y8            // bp[p*16 .. p*16+7]
	VMOVUPS	32(BX), Y9          // bp[p*16+8 .. p*16+15]

	VBROADCASTSS	(SI)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y0, Y0
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y1, Y1

	VBROADCASTSS	(R9)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y2, Y2
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y3, Y3

	VBROADCASTSS	(R10)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y4, Y4
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y5, Y5

	VBROADCASTSS	(R11)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y6, Y6
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y7, Y7

	ADDQ	$64, BX
	INCQ	DX
	CMPQ	DX, CX
	JLT	loop

done:
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	VMOVUPS	Y4, 128(DI)
	VMOVUPS	Y5, 160(DI)
	VMOVUPS	Y6, 192(DI)
	VMOVUPS	Y7, 224(DI)
	VZEROUPPER
	RET

// func avx2SegPanel4x16(a *float32, lda int, b *float32, ldb int, k, seg int, c *float32, ldc int)
//
// Segmented-k 4×16 tile of C += A·B with B row-major and read in place:
// for each k segment s of length seg, in ascending order,
//
//	c[r*ldc+j] += Σ_{p∈s} a[r*lda+p] · b[p*ldb+j]    r∈[0,4), j∈[0,16)
//
// Each segment's eight YMM partials start from zero, advance in ascending
// p with separate multiply and add (the avx2DotPanel4x16 loop, with a B
// row stride instead of a packed panel), and are then folded into the C
// tile, so every element is the same chain as the scalar reference.
// k must be a multiple of seg.
TEXT ·avx2SegPanel4x16(SB), NOSPLIT, $0-64
	MOVQ	a+0(FP), SI
	MOVQ	lda+8(FP), AX
	MOVQ	b+16(FP), BX
	MOVQ	ldb+24(FP), R8
	MOVQ	seg+40(FP), R12
	MOVQ	c+48(FP), DI
	MOVQ	ldc+56(FP), R13

	SHLQ	$2, AX              // A row stride in bytes
	LEAQ	(SI)(AX*1), R9      // a row 1
	LEAQ	(R9)(AX*1), R10     // a row 2
	LEAQ	(R10)(AX*1), R11    // a row 3
	SHLQ	$2, R8              // B row stride in bytes
	SHLQ	$2, R13             // C row stride in bytes

	XORQ	DX, DX              // p = 0

segment:
	MOVQ	k+32(FP), AX
	CMPQ	DX, AX
	JGE	done
	MOVQ	DX, CX
	ADDQ	R12, CX             // end of this segment

	VXORPS	Y0, Y0, Y0          // row 0, cols 0-7
	VXORPS	Y1, Y1, Y1          // row 0, cols 8-15
	VXORPS	Y2, Y2, Y2          // row 1, cols 0-7
	VXORPS	Y3, Y3, Y3          // row 1, cols 8-15
	VXORPS	Y4, Y4, Y4          // row 2, cols 0-7
	VXORPS	Y5, Y5, Y5          // row 2, cols 8-15
	VXORPS	Y6, Y6, Y6          // row 3, cols 0-7
	VXORPS	Y7, Y7, Y7          // row 3, cols 8-15

loop:
	VMOVUPS	(BX), Y8            // b[p*ldb .. p*ldb+7]
	VMOVUPS	32(BX), Y9          // b[p*ldb+8 .. p*ldb+15]

	VBROADCASTSS	(SI)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y0, Y0
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y1, Y1

	VBROADCASTSS	(R9)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y2, Y2
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y3, Y3

	VBROADCASTSS	(R10)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y4, Y4
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y5, Y5

	VBROADCASTSS	(R11)(DX*4), Y10
	VMULPS	Y8, Y10, Y11
	VADDPS	Y11, Y6, Y6
	VMULPS	Y9, Y10, Y12
	VADDPS	Y12, Y7, Y7

	ADDQ	R8, BX
	INCQ	DX
	CMPQ	DX, CX
	JLT	loop

	// Fold the segment's partials into the C tile.
	VADDPS	(DI), Y0, Y0
	VMOVUPS	Y0, (DI)
	VADDPS	32(DI), Y1, Y1
	VMOVUPS	Y1, 32(DI)
	VADDPS	(DI)(R13*1), Y2, Y2
	VMOVUPS	Y2, (DI)(R13*1)
	VADDPS	32(DI)(R13*1), Y3, Y3
	VMOVUPS	Y3, 32(DI)(R13*1)
	LEAQ	(DI)(R13*2), AX     // c row 2
	VADDPS	(AX), Y4, Y4
	VMOVUPS	Y4, (AX)
	VADDPS	32(AX), Y5, Y5
	VMOVUPS	Y5, 32(AX)
	VADDPS	(AX)(R13*1), Y6, Y6
	VMOVUPS	Y6, (AX)(R13*1)
	VADDPS	32(AX)(R13*1), Y7, Y7
	VMOVUPS	Y7, 32(AX)(R13*1)
	JMP	segment

done:
	VZEROUPPER
	RET
