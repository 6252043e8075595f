#include "textflag.h"

// func jacobiDots8AVX2(p, q []float64, stride, rows int, dots *[3][8]float64)
//
// The inner products of eight Jacobi column pairs, one YMM lane per pair:
// lane k pairs column k of p with column 7−k of q (columns are stride
// elements apart, so q's are read downwards from column 7 and the lanes
// need no permute). Lanes 0-3 sum in Y0 (p·p), Y1 (q·q) and Y2 (p·q),
// lanes 4-7 in Y3, Y4 and Y5, over the rows i < rows, a multiple of four,
// in order from +0. Each step transposes four 4×4 tiles per group of four
// lanes in registers (an XMM load and a VINSERTF128 per column pair, then
// VUNPCKLPD / VUNPCKHPD give rows i and i+1, i+2 and i+3), and per row in
// order does one VMULPD and one VADDPD per sum: the rounding of the Go
// pair loop, alpha += vp*vp, beta += vq*vq, gamma += vp*vq. No FMA
// instruction may appear here.
TEXT ·jacobiDots8AVX2(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), SI
	MOVQ q_base+24(FP), DI
	MOVQ stride+48(FP), BX
	MOVQ rows+56(FP), CX
	MOVQ dots+64(FP), DX

	SHLQ $3, BX              // column stride in bytes
	LEAQ (BX)(BX*2), R9      // three columns
	MOVQ BX, R11
	NEGQ R11                 // one column down
	MOVQ R9, R12
	NEGQ R12                 // three columns down
	LEAQ (SI)(BX*4), R8      // p's column 4: lane 4
	LEAQ (R9)(BX*4), AX
	ADDQ AX, DI              // q's column 7: lane 0
	LEAQ (DI)(R11*4), R10    // q's column 3: lane 4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	SHRQ $2, CX
	JZ   done

loop:
	// Lanes 0-3: Y6-Y9 hold rows i..i+3 of p's columns 0-3, Y10-Y13 those of q's columns 7-4.
	VMOVUPD     (SI), X14
	VINSERTF128 $1, (SI)(BX*2), Y14, Y14
	VMOVUPD     (SI)(BX*1), X15
	VINSERTF128 $1, (SI)(R9*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y6
	VUNPCKHPD   Y15, Y14, Y7
	VMOVUPD     16(SI), X14
	VINSERTF128 $1, 16(SI)(BX*2), Y14, Y14
	VMOVUPD     16(SI)(BX*1), X15
	VINSERTF128 $1, 16(SI)(R9*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y8
	VUNPCKHPD   Y15, Y14, Y9
	VMOVUPD     (DI), X14
	VINSERTF128 $1, (DI)(R11*2), Y14, Y14
	VMOVUPD     (DI)(R11*1), X15
	VINSERTF128 $1, (DI)(R12*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y10
	VUNPCKHPD   Y15, Y14, Y11
	VMOVUPD     16(DI), X14
	VINSERTF128 $1, 16(DI)(R11*2), Y14, Y14
	VMOVUPD     16(DI)(R11*1), X15
	VINSERTF128 $1, 16(DI)(R12*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y12
	VUNPCKHPD   Y15, Y14, Y13
	VMULPD      Y10, Y6, Y14
	VADDPD      Y14, Y2, Y2
	VMULPD      Y6, Y6, Y6
	VADDPD      Y6, Y0, Y0
	VMULPD      Y10, Y10, Y10
	VADDPD      Y10, Y1, Y1
	VMULPD      Y11, Y7, Y14
	VADDPD      Y14, Y2, Y2
	VMULPD      Y7, Y7, Y7
	VADDPD      Y7, Y0, Y0
	VMULPD      Y11, Y11, Y11
	VADDPD      Y11, Y1, Y1
	VMULPD      Y12, Y8, Y14
	VADDPD      Y14, Y2, Y2
	VMULPD      Y8, Y8, Y8
	VADDPD      Y8, Y0, Y0
	VMULPD      Y12, Y12, Y12
	VADDPD      Y12, Y1, Y1
	VMULPD      Y13, Y9, Y14
	VADDPD      Y14, Y2, Y2
	VMULPD      Y9, Y9, Y9
	VADDPD      Y9, Y0, Y0
	VMULPD      Y13, Y13, Y13
	VADDPD      Y13, Y1, Y1

	// Lanes 4-7: p's columns 4-7, q's columns 3-0.
	VMOVUPD     (R8), X14
	VINSERTF128 $1, (R8)(BX*2), Y14, Y14
	VMOVUPD     (R8)(BX*1), X15
	VINSERTF128 $1, (R8)(R9*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y6
	VUNPCKHPD   Y15, Y14, Y7
	VMOVUPD     16(R8), X14
	VINSERTF128 $1, 16(R8)(BX*2), Y14, Y14
	VMOVUPD     16(R8)(BX*1), X15
	VINSERTF128 $1, 16(R8)(R9*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y8
	VUNPCKHPD   Y15, Y14, Y9
	VMOVUPD     (R10), X14
	VINSERTF128 $1, (R10)(R11*2), Y14, Y14
	VMOVUPD     (R10)(R11*1), X15
	VINSERTF128 $1, (R10)(R12*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y10
	VUNPCKHPD   Y15, Y14, Y11
	VMOVUPD     16(R10), X14
	VINSERTF128 $1, 16(R10)(R11*2), Y14, Y14
	VMOVUPD     16(R10)(R11*1), X15
	VINSERTF128 $1, 16(R10)(R12*1), Y15, Y15
	VUNPCKLPD   Y15, Y14, Y12
	VUNPCKHPD   Y15, Y14, Y13
	VMULPD      Y10, Y6, Y14
	VADDPD      Y14, Y5, Y5
	VMULPD      Y6, Y6, Y6
	VADDPD      Y6, Y3, Y3
	VMULPD      Y10, Y10, Y10
	VADDPD      Y10, Y4, Y4
	VMULPD      Y11, Y7, Y14
	VADDPD      Y14, Y5, Y5
	VMULPD      Y7, Y7, Y7
	VADDPD      Y7, Y3, Y3
	VMULPD      Y11, Y11, Y11
	VADDPD      Y11, Y4, Y4
	VMULPD      Y12, Y8, Y14
	VADDPD      Y14, Y5, Y5
	VMULPD      Y8, Y8, Y8
	VADDPD      Y8, Y3, Y3
	VMULPD      Y12, Y12, Y12
	VADDPD      Y12, Y4, Y4
	VMULPD      Y13, Y9, Y14
	VADDPD      Y14, Y5, Y5
	VMULPD      Y9, Y9, Y9
	VADDPD      Y9, Y3, Y3
	VMULPD      Y13, Y13, Y13
	VADDPD      Y13, Y4, Y4

	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y3, 32(DX)
	VMOVUPD Y1, 64(DX)
	VMOVUPD Y4, 96(DX)
	VMOVUPD Y2, 128(DX)
	VMOVUPD Y5, 160(DX)
	VZEROUPPER
	RET

// func jacobiRotAVX2(p, q []float64, c, s float64)
//
// One Jacobi rotation along a column pair, four rows per YMM with c and s
// broadcast, over i < len(p), a multiple of four: p[i] = c*p[i] − s*q[i]
// and q[i] = s*p[i] + c*q[i], each product one VMULPD and the difference
// and sum one VSUBPD and one VADDPD, the rounding of the Go loop. No FMA
// instruction may appear here.
TEXT ·jacobiRotAVX2(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	SHRQ $2, CX
	JZ   rotdone

rotloop:
	VMOVUPD (SI), Y2         // p
	VMOVUPD (DI), Y3         // q
	VMULPD  Y0, Y2, Y4       // c*p
	VMULPD  Y1, Y3, Y5       // s*q
	VSUBPD  Y5, Y4, Y4       // c*p - s*q
	VMULPD  Y1, Y2, Y2       // s*p
	VMULPD  Y0, Y3, Y3       // c*q
	VADDPD  Y3, Y2, Y2       // s*p + c*q
	VMOVUPD Y4, (SI)
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rotloop

rotdone:
	VZEROUPPER
	RET
