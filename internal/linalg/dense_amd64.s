#include "textflag.h"

// func dotRows8AVX2(a []float64, cols int, x []float64, sum *[8]float64)
//
// sum[k] = Σ_j a[k*cols+j]*x[j] for the eight rows k of a and the
// columns j < len(x), a multiple of four, summed j = 0, 1, ... in order
// from +0, one YMM lane per row: rows 0-3 in Y0, rows 4-7 in Y1. Each
// step transposes two 4×4 tiles in registers (an XMM load and a
// VINSERTF128 per row pair, then VUNPCKLPD / VUNPCKHPD give columns j and
// j+1, j+2 and j+3), broadcasts x[j..j+3], and per column in order does
// one VMULPD and one VADDPD: the rounding of Dense.mulAdd's Go loop,
// s += a[j]*x[j]. No FMA instruction may appear here.
TEXT ·dotRows8AVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ x_base+32(FP), DX
	MOVQ x_len+40(FP), CX
	MOVQ sum+56(FP), DI

	SHLQ $3, BX              // row stride in bytes
	LEAQ (BX)(BX*2), R9      // three rows
	LEAQ (SI)(BX*4), R8      // row 4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ $2, CX
	JZ   done

loop:
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VBROADCASTSD 16(DX), Y12
	VBROADCASTSD 24(DX), Y13

	// Rows 0-3.
	VMOVUPD     (SI), X2
	VINSERTF128 $1, (SI)(BX*2), Y2, Y2
	VMOVUPD     (SI)(BX*1), X3
	VINSERTF128 $1, (SI)(R9*1), Y3, Y3
	VMOVUPD     16(SI), X4
	VINSERTF128 $1, 16(SI)(BX*2), Y4, Y4
	VMOVUPD     16(SI)(BX*1), X5
	VINSERTF128 $1, 16(SI)(R9*1), Y5, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VUNPCKLPD   Y5, Y4, Y8
	VUNPCKHPD   Y5, Y4, Y9
	VMULPD      Y10, Y6, Y6
	VADDPD      Y6, Y0, Y0
	VMULPD      Y11, Y7, Y7
	VADDPD      Y7, Y0, Y0
	VMULPD      Y12, Y8, Y8
	VADDPD      Y8, Y0, Y0
	VMULPD      Y13, Y9, Y9
	VADDPD      Y9, Y0, Y0

	// Rows 4-7.
	VMOVUPD     (R8), X2
	VINSERTF128 $1, (R8)(BX*2), Y2, Y2
	VMOVUPD     (R8)(BX*1), X3
	VINSERTF128 $1, (R8)(R9*1), Y3, Y3
	VMOVUPD     16(R8), X4
	VINSERTF128 $1, 16(R8)(BX*2), Y4, Y4
	VMOVUPD     16(R8)(BX*1), X5
	VINSERTF128 $1, 16(R8)(R9*1), Y5, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VUNPCKLPD   Y5, Y4, Y8
	VUNPCKHPD   Y5, Y4, Y9
	VMULPD      Y10, Y6, Y6
	VADDPD      Y6, Y1, Y1
	VMULPD      Y11, Y7, Y7
	VADDPD      Y7, Y1, Y1
	VMULPD      Y12, Y8, Y8
	VADDPD      Y8, Y1, Y1
	VMULPD      Y13, Y9, Y9
	VADDPD      Y9, Y1, Y1

	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DX
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func dotRows8x4AVX2(a []float64, cols int, x []float64, sum *[4][8]float64)
//
// dotRows8AVX2 for four columns of x at once: column q starts at x +
// q*cols, the same stride as a's rows. Each step transposes the two 4×4
// tiles of a once (as dotRows8AVX2 does) and applies them to all four
// columns: per column q, lane k of Y(2q) holds row k's sum and lane k of
// Y(2q+1) row k+4's, and per column j in order one VMULPD and one
// VADDPD, the rounding of Dense.mulAdd's Go loop. The columns j <
// cols&^3 are summed here. No FMA instruction may appear here.
TEXT ·dotRows8x4AVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ cols+24(FP), BX
	MOVQ x_base+32(FP), DX
	MOVQ sum+56(FP), DI

	MOVQ BX, CX
	SHRQ $2, CX              // steps of four columns
	SHLQ $3, BX              // row stride in a, column stride in x, in bytes
	LEAQ (BX)(BX*2), R9      // three strides
	LEAQ (SI)(BX*4), R8      // row 4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ    done

loop:
	// Rows 0-3: Y8-Y11 hold columns j..j+3 of the tile.
	VMOVUPD     (SI), X12
	VINSERTF128 $1, (SI)(BX*2), Y12, Y12
	VMOVUPD     (SI)(BX*1), X13
	VINSERTF128 $1, (SI)(R9*1), Y13, Y13
	VMOVUPD     16(SI), X14
	VINSERTF128 $1, 16(SI)(BX*2), Y14, Y14
	VMOVUPD     16(SI)(BX*1), X15
	VINSERTF128 $1, 16(SI)(R9*1), Y15, Y15
	VUNPCKLPD   Y13, Y12, Y8
	VUNPCKHPD   Y13, Y12, Y9
	VUNPCKLPD   Y15, Y14, Y10
	VUNPCKHPD   Y15, Y14, Y11
	VBROADCASTSD (DX), Y12
	VMULPD       Y12, Y8, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD (DX)(BX*1), Y13
	VMULPD       Y13, Y8, Y13
	VADDPD       Y13, Y2, Y2
	VBROADCASTSD (DX)(BX*2), Y14
	VMULPD       Y14, Y8, Y14
	VADDPD       Y14, Y4, Y4
	VBROADCASTSD (DX)(R9*1), Y15
	VMULPD       Y15, Y8, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD 8(DX), Y12
	VMULPD       Y12, Y9, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD 8(DX)(BX*1), Y13
	VMULPD       Y13, Y9, Y13
	VADDPD       Y13, Y2, Y2
	VBROADCASTSD 8(DX)(BX*2), Y14
	VMULPD       Y14, Y9, Y14
	VADDPD       Y14, Y4, Y4
	VBROADCASTSD 8(DX)(R9*1), Y15
	VMULPD       Y15, Y9, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD 16(DX), Y12
	VMULPD       Y12, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD 16(DX)(BX*1), Y13
	VMULPD       Y13, Y10, Y13
	VADDPD       Y13, Y2, Y2
	VBROADCASTSD 16(DX)(BX*2), Y14
	VMULPD       Y14, Y10, Y14
	VADDPD       Y14, Y4, Y4
	VBROADCASTSD 16(DX)(R9*1), Y15
	VMULPD       Y15, Y10, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD 24(DX), Y12
	VMULPD       Y12, Y11, Y12
	VADDPD       Y12, Y0, Y0
	VBROADCASTSD 24(DX)(BX*1), Y13
	VMULPD       Y13, Y11, Y13
	VADDPD       Y13, Y2, Y2
	VBROADCASTSD 24(DX)(BX*2), Y14
	VMULPD       Y14, Y11, Y14
	VADDPD       Y14, Y4, Y4
	VBROADCASTSD 24(DX)(R9*1), Y15
	VMULPD       Y15, Y11, Y15
	VADDPD       Y15, Y6, Y6

	// Rows 4-7: Y8-Y11 hold columns j..j+3 of the tile.
	VMOVUPD     (R8), X12
	VINSERTF128 $1, (R8)(BX*2), Y12, Y12
	VMOVUPD     (R8)(BX*1), X13
	VINSERTF128 $1, (R8)(R9*1), Y13, Y13
	VMOVUPD     16(R8), X14
	VINSERTF128 $1, 16(R8)(BX*2), Y14, Y14
	VMOVUPD     16(R8)(BX*1), X15
	VINSERTF128 $1, 16(R8)(R9*1), Y15, Y15
	VUNPCKLPD   Y13, Y12, Y8
	VUNPCKHPD   Y13, Y12, Y9
	VUNPCKLPD   Y15, Y14, Y10
	VUNPCKHPD   Y15, Y14, Y11
	VBROADCASTSD (DX), Y12
	VMULPD       Y12, Y8, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (DX)(BX*1), Y13
	VMULPD       Y13, Y8, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD (DX)(BX*2), Y14
	VMULPD       Y14, Y8, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD (DX)(R9*1), Y15
	VMULPD       Y15, Y8, Y15
	VADDPD       Y15, Y7, Y7
	VBROADCASTSD 8(DX), Y12
	VMULPD       Y12, Y9, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(DX)(BX*1), Y13
	VMULPD       Y13, Y9, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD 8(DX)(BX*2), Y14
	VMULPD       Y14, Y9, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD 8(DX)(R9*1), Y15
	VMULPD       Y15, Y9, Y15
	VADDPD       Y15, Y7, Y7
	VBROADCASTSD 16(DX), Y12
	VMULPD       Y12, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 16(DX)(BX*1), Y13
	VMULPD       Y13, Y10, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD 16(DX)(BX*2), Y14
	VMULPD       Y14, Y10, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD 16(DX)(R9*1), Y15
	VMULPD       Y15, Y10, Y15
	VADDPD       Y15, Y7, Y7
	VBROADCASTSD 24(DX), Y12
	VMULPD       Y12, Y11, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 24(DX)(BX*1), Y13
	VMULPD       Y13, Y11, Y13
	VADDPD       Y13, Y3, Y3
	VBROADCASTSD 24(DX)(BX*2), Y14
	VMULPD       Y14, Y11, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD 24(DX)(R9*1), Y15
	VMULPD       Y15, Y11, Y15
	VADDPD       Y15, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DX
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func addScaledAVX2(dst, x []float64, a float64)
//
// dst[j] += a*x[j] for j < len(dst), a multiple of four, four elements
// per YMM with a broadcast: one VMULPD and one VADDPD per element, the
// rounding of Mul's Go loop. No FMA instruction may appear here.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	SHRQ $2, CX
	JZ   axpydone

axpyloop:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET
