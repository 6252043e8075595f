#include "textflag.h"

// func laplaceSums4AVX2(t *[12]float64, src, den []float64, sum *[4]float64)
//
// For four targets t = (x0..x3, y0..y3, z0..z3) and every source j in
// order, one lane per target:
//   r  = t - s_j                  VSUBPD
//   r2 = (rx*rx + ry*ry) + rz*rz  VMULPD, VADDPD
//   q  = den_j / sqrt(r2)         VSQRTPD, VDIVPD (both correctly rounded)
//   q  = 0 where r2 == 0          VCMPPD EQ_OQ, VANDNPD
//   sum += q                      VADDPD
// which is the expression, operand order and rounding of laplaceP2P's Go
// loop; the masked +0 adds exactly what its `continue` skips, since a
// sum started at +0 is never -0. A NaN r2 compares unequal and
// propagates as in Go. No FMA or reciprocal estimate may appear here.
TEXT ·laplaceSums4AVX2(SB), NOSPLIT, $0-64
	MOVQ t+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ den_base+32(FP), DX
	MOVQ den_len+40(FP), CX
	MOVQ sum+56(FP), DI

	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	TESTQ   CX, CX
	JZ      done

loop:
	VBROADCASTSD (SI), Y5
	VBROADCASTSD 8(SI), Y6
	VBROADCASTSD 16(SI), Y7
	VSUBPD       Y5, Y0, Y5
	VSUBPD       Y6, Y1, Y6
	VSUBPD       Y7, Y2, Y7
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VADDPD       Y6, Y5, Y5
	VADDPD       Y7, Y5, Y5
	VCMPPD       $0, Y4, Y5, Y8
	VSQRTPD      Y5, Y5
	VBROADCASTSD (DX), Y9
	VDIVPD       Y5, Y9, Y9
	VANDNPD      Y9, Y8, Y9
	VADDPD       Y9, Y3, Y3
	ADDQ         $24, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET
