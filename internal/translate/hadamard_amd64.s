#include "textflag.h"

// func hadamardAddAVX2(dst, t, s []complex128)
//
// dst[i] += t[i]*s[i], two complex128 per YMM register. Per element:
//   Y0 = (tr, tr)        VMOVDDUP
//   Y1 = (ti, ti)        VPERMILPD $0xF
//   Y3 = (si, sr)        VPERMILPD $0x5 of s = (sr, si)
//   Y0 = (tr*sr, tr*si)  VMULPD
//   Y1 = (ti*si, ti*sr)  VMULPD
//   Y0 = (tr*sr - ti*si, tr*si + ti*sr)   VADDSUBPD
//   dst = dst + Y0       VADDPD
// which is the expression, operand order and rounding of the Go loop.
// No FMA instruction may appear here.
TEXT ·hadamardAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ t_base+24(FP), SI
	MOVQ s_base+48(FP), DX

	CMPQ CX, $4
	JL   two

four:
	VMOVDDUP  (SI), Y0
	VMOVDDUP  32(SI), Y4
	VPERMILPD $0xF, (SI), Y1
	VPERMILPD $0xF, 32(SI), Y5
	VMOVUPD   (DX), Y2
	VMOVUPD   32(DX), Y6
	VPERMILPD $0x5, Y2, Y3
	VPERMILPD $0x5, Y6, Y7
	VMULPD    Y2, Y0, Y0
	VMULPD    Y6, Y4, Y4
	VMULPD    Y3, Y1, Y1
	VMULPD    Y7, Y5, Y5
	VADDSUBPD Y1, Y0, Y0
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   (DI), Y8
	VMOVUPD   32(DI), Y9
	VADDPD    Y0, Y8, Y8
	VADDPD    Y4, Y9, Y9
	VMOVUPD   Y8, (DI)
	VMOVUPD   Y9, 32(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       four

two:
	CMPQ CX, $2
	JL   one
	VMOVDDUP  (SI), Y0
	VPERMILPD $0xF, (SI), Y1
	VMOVUPD   (DX), Y2
	VPERMILPD $0x5, Y2, Y3
	VMULPD    Y2, Y0, Y0
	VMULPD    Y3, Y1, Y1
	VADDSUBPD Y1, Y0, Y0
	VMOVUPD   (DI), Y8
	VADDPD    Y0, Y8, Y8
	VMOVUPD   Y8, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, DI
	SUBQ      $2, CX

one:
	CMPQ CX, $1
	JL   done
	VMOVDDUP  (SI), X0
	VPERMILPD $0x3, (SI), X1
	VMOVUPD   (DX), X2
	VPERMILPD $0x1, X2, X3
	VMULPD    X2, X0, X0
	VMULPD    X3, X1, X1
	VADDSUBPD X1, X0, X0
	VMOVUPD   (DI), X8
	VADDPD    X0, X8, X8
	VMOVUPD   X8, (DI)

done:
	VZEROUPPER
	RET
