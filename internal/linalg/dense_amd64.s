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
