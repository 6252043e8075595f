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

// func accumulateBlockAVX2(acc, src []complex128, t [][]complex128, gl, nq, td, sd int)
//
// acc[(q*td+a)*gl+i] += Σ_b t[a*sd+b][i]*src[(q*sd+b)*gl+i] for every
// right-hand side q < nq and target component a < td, over b < sd in
// order, for td, sd in 1..3 and the even prefix i < gl&^1 of every grid
// (accumulateBlock does an odd last element). One frequency pair i, i+1
// per YMM register: for each pair the td×sd tensor values are loaded
// once into Y(3a+b); each right-hand side then loads its td accumulators
// into Y9-Y11, adds the products of source component b = 0, 1, 2 into
// all of them, and stores them once. A product is formed from the other
// side of hadamardAddAVX2's (STEP below):
//   Y12 = (sr, sr)        VMOVDDUP
//   Y13 = (si, si)        VPERMILPD $0xF
//   Y14 = (ti, tr)        VPERMILPD $0x5
//   Y14 = (si*ti, si*tr)  VMULPD
//   Y15 = (sr*tr, sr*ti)  VMULPD
//   Y15 = (sr*tr - si*ti, sr*ti + si*tr)   VADDSUBPD
//   acc = acc + Y15       VADDPD
// The multiplies and the imaginary part's add are hadamardAddAVX2's
// operations with their operands commuted, so every element gets its
// roundings, in the order of one hadamardAdd call per b. No FMA
// instruction may appear here.
//
// Registers: R11 byte offset of the pair in a grid, CX pairs left, BX one
// grid in bytes, R12 / R13 the accumulator / source step from one
// right-hand side to the next, R9 td, R8 sd, R10 sd tensor slice headers
// in bytes, DI / SI the accumulator / source of (q, 0), R14 the q counter.

#define SRC(addr) VMOVDDUP addr, Y12; VPERMILPD $0xF, addr, Y13

#define STEP(T, A) VPERMILPD $0x5, T, Y14; VMULPD Y13, Y14, Y14; VMULPD Y12, T, Y15; VADDSUBPD Y14, Y15, Y15; VADDPD Y15, A, A

TEXT ·accumulateBlockAVX2(SB), NOSPLIT, $0-104
	MOVQ gl+72(FP), CX
	MOVQ CX, BX
	SHLQ $4, BX
	MOVQ td+88(FP), R9
	MOVQ R9, R12
	IMULQ BX, R12
	MOVQ sd+96(FP), R8
	MOVQ R8, R13
	IMULQ BX, R13
	LEAQ (R8)(R8*2), R10
	SHLQ $3, R10
	XORQ R11, R11
	SHRQ $1, CX
	JZ   done

pair:
	MOVQ    t_base+48(FP), DX
	MOVQ    (DX), AX
	VMOVUPD (AX)(R11*1), Y0
	CMPQ    R8, $2
	JL      row1
	MOVQ    24(DX), AX
	VMOVUPD (AX)(R11*1), Y1
	CMPQ    R8, $3
	JL      row1
	MOVQ    48(DX), AX
	VMOVUPD (AX)(R11*1), Y2

row1:
	CMPQ    R9, $2
	JL      rows
	ADDQ    R10, DX
	MOVQ    (DX), AX
	VMOVUPD (AX)(R11*1), Y3
	CMPQ    R8, $2
	JL      row2
	MOVQ    24(DX), AX
	VMOVUPD (AX)(R11*1), Y4
	CMPQ    R8, $3
	JL      row2
	MOVQ    48(DX), AX
	VMOVUPD (AX)(R11*1), Y5

row2:
	CMPQ    R9, $3
	JL      rows
	ADDQ    R10, DX
	MOVQ    (DX), AX
	VMOVUPD (AX)(R11*1), Y6
	CMPQ    R8, $2
	JL      rows
	MOVQ    24(DX), AX
	VMOVUPD (AX)(R11*1), Y7
	CMPQ    R8, $3
	JL      rows
	MOVQ    48(DX), AX
	VMOVUPD (AX)(R11*1), Y8

rows:
	MOVQ acc_base+0(FP), DI
	ADDQ R11, DI
	MOVQ src_base+24(FP), SI
	ADDQ R11, SI
	MOVQ nq+80(FP), R14
	CMPQ R9, $2
	JL   q1
	JE   q2

q3:
	VMOVUPD (DI), Y9
	VMOVUPD (DI)(BX*1), Y10
	VMOVUPD (DI)(BX*2), Y11
	SRC((SI))
	STEP(Y0, Y9)
	STEP(Y3, Y10)
	STEP(Y6, Y11)
	CMPQ    R8, $2
	JL      q3store
	SRC((SI)(BX*1))
	STEP(Y1, Y9)
	STEP(Y4, Y10)
	STEP(Y7, Y11)
	CMPQ    R8, $3
	JL      q3store
	SRC((SI)(BX*2))
	STEP(Y2, Y9)
	STEP(Y5, Y10)
	STEP(Y8, Y11)

q3store:
	VMOVUPD Y9, (DI)
	VMOVUPD Y10, (DI)(BX*1)
	VMOVUPD Y11, (DI)(BX*2)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R14
	JNZ     q3
	JMP     next

q2:
	VMOVUPD (DI), Y9
	VMOVUPD (DI)(BX*1), Y10
	SRC((SI))
	STEP(Y0, Y9)
	STEP(Y3, Y10)
	CMPQ    R8, $2
	JL      q2store
	SRC((SI)(BX*1))
	STEP(Y1, Y9)
	STEP(Y4, Y10)
	CMPQ    R8, $3
	JL      q2store
	SRC((SI)(BX*2))
	STEP(Y2, Y9)
	STEP(Y5, Y10)

q2store:
	VMOVUPD Y9, (DI)
	VMOVUPD Y10, (DI)(BX*1)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R14
	JNZ     q2
	JMP     next

q1:
	VMOVUPD (DI), Y9
	SRC((SI))
	STEP(Y0, Y9)
	CMPQ    R8, $2
	JL      q1store
	SRC((SI)(BX*1))
	STEP(Y1, Y9)
	CMPQ    R8, $3
	JL      q1store
	SRC((SI)(BX*2))
	STEP(Y2, Y9)

q1store:
	VMOVUPD Y9, (DI)
	ADDQ    R12, DI
	ADDQ    R13, SI
	DECQ    R14
	JNZ     q1

next:
	ADDQ $32, R11
	DECQ CX
	JNZ  pair

done:
	VZEROUPPER
	RET
