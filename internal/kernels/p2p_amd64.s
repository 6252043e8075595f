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

DATA stokesOne<>+0(SB)/8, $1.0
GLOBL stokesOne<>(SB), RODATA|NOPTR, $8

// func stokesSums4AVX2(t *[12]float64, src []float64, den *[rhsBlock]*float64, nq int, sum *[rhsBlock * 12]float64)
//
// For four targets t = (x0..x3, y0..y3, z0..z3) and every source j in
// order, one lane per target, the pair's geometry once:
//   r    = t - s_j                   VSUBPD
//   r2   = (rx*rx + ry*ry) + rz*rz   VMULPD, VADDPD
//   m    = (r2 == 0)                 VCMPPD EQ_OQ
//   inv  = 1 / sqrt(r2)              VSQRTPD, VDIVPD (both correctly rounded)
//   inv3 = (inv*inv) * inv           VMULPD
// then for each right-hand side q < nq, with f the broadcast density of
// source j in vector q:
//   rdotf = (rx*fx + ry*fy) + rz*fz
//   sum_a += (inv*fa + (inv3*rdotf)*ra), masked to +0 where m,  a = x, y, z
// which is the expression, operand order and rounding of stokesP2P's Go
// loop; the masked +0 adds exactly what its `continue` skips, since a
// sum started at +0 is never -0. A NaN r2 compares unequal and
// propagates as in Go. The 3·nq sums live in sum (x, y, z row of vector
// 0, then vector 1, ...), read and written once per source. No FMA or
// reciprocal estimate may appear here.
TEXT ·stokesSums4AVX2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ den+32(FP), R8
	MOVQ nq+40(FP), R9
	MOVQ sum+48(FP), DI

	VXORPD Y15, Y15, Y15
	MOVQ   DI, R11
	MOVQ   R9, BX

zero:
	VMOVUPD Y15, (R11)
	VMOVUPD Y15, 32(R11)
	VMOVUPD Y15, 64(R11)
	ADDQ    $96, R11
	DECQ    BX
	JNZ     zero

	VMOVUPD      (AX), Y12
	VMOVUPD      32(AX), Y13
	VMOVUPD      64(AX), Y14
	VBROADCASTSD stokesOne<>(SB), Y11
	SHLQ         $3, CX            // bytes of src: the end of the byte offset DX
	XORQ         DX, DX            // 24*j, into src and into every density vector
	TESTQ        CX, CX
	JZ           done

source:
	VBROADCASTSD (SI)(DX*1), Y0
	VBROADCASTSD 8(SI)(DX*1), Y1
	VBROADCASTSD 16(SI)(DX*1), Y2
	VSUBPD       Y0, Y12, Y0
	VSUBPD       Y1, Y13, Y1
	VSUBPD       Y2, Y14, Y2
	VMULPD       Y0, Y0, Y3
	VMULPD       Y1, Y1, Y4
	VADDPD       Y4, Y3, Y3
	VMULPD       Y2, Y2, Y4
	VADDPD       Y4, Y3, Y3
	VCMPPD       $0, Y15, Y3, Y5
	VSQRTPD      Y3, Y3
	VDIVPD       Y3, Y11, Y3
	VMULPD       Y3, Y3, Y4
	VMULPD       Y3, Y4, Y4
	MOVQ         R8, R10
	MOVQ         DI, R11
	MOVQ         R9, BX

rhs:
	MOVQ         (R10), R12
	VBROADCASTSD (R12)(DX*1), Y6
	VBROADCASTSD 8(R12)(DX*1), Y7
	VBROADCASTSD 16(R12)(DX*1), Y8
	VMULPD       Y6, Y0, Y9
	VMULPD       Y7, Y1, Y10
	VADDPD       Y10, Y9, Y9
	VMULPD       Y8, Y2, Y10
	VADDPD       Y10, Y9, Y9
	VMULPD       Y9, Y4, Y9

	VMULPD  Y6, Y3, Y6
	VMULPD  Y9, Y0, Y10
	VADDPD  Y10, Y6, Y6
	VANDNPD Y6, Y5, Y6
	VADDPD  (R11), Y6, Y6
	VMOVUPD Y6, (R11)

	VMULPD  Y7, Y3, Y7
	VMULPD  Y9, Y1, Y10
	VADDPD  Y10, Y7, Y7
	VANDNPD Y7, Y5, Y7
	VADDPD  32(R11), Y7, Y7
	VMOVUPD Y7, 32(R11)

	VMULPD  Y8, Y3, Y8
	VMULPD  Y9, Y2, Y10
	VADDPD  Y10, Y8, Y8
	VANDNPD Y8, Y5, Y8
	VADDPD  64(R11), Y8, Y8
	VMOVUPD Y8, 64(R11)

	ADDQ $8, R10
	ADDQ $96, R11
	DECQ BX
	JNZ  rhs

	ADDQ $24, DX
	CMPQ DX, CX
	JB   source

done:
	VZEROUPPER
	RET
