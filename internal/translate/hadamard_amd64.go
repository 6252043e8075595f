package translate

import "repro/internal/cpu"

// hadamardAdd accumulates dst[i] += t[i]*s[i]. It is the V-list sweep's
// innermost loop for a scalar kernel, one call per V-list pair and
// right-hand side (a 3×3 kernel's pairs go through accumulateBlock, whose
// every element gets this loop's roundings).
//
// On a CPU with AVX2 (cpu.AVX2) it runs hadamardAddAVX2, two complex
// elements per YMM register on the interleaved complex128 layout. That
// body evaluates (tr·sr − ti·si) + i(tr·si + ti·sr) and then the add into
// dst with separate multiplies and adds, in the order Go compiles the
// loop of hadamardAddGeneric to, so the two bodies agree bit for bit and
// the choice between them, made only from the CPU, never changes a
// result. It uses no FMA: a fused multiply-add rounds once where the Go
// loop rounds twice. That rests on the Go compiler not fusing the loop's
// multiplies and adds on amd64 either, which holds for go1.24 at every
// GOAMD64 level (no VFMADD in its code at v3); a compiler that starts to
// fuse fails TestHadamardAddBodiesAgree.
func hadamardAdd(dst, t, s []complex128) {
	if cpu.AVX2 {
		hadamardAddAVX2(dst, t[:len(dst)], s[:len(dst)])
		return
	}
	hadamardAddGeneric(dst, t, s)
}

// hadamardAddAVX2 is hadamardAdd's vector body; t and s must be at least
// as long as dst.
//
//go:noescape
func hadamardAddAVX2(dst, t, s []complex128)

// accumulateBlock adds the td×sd tensor block t, one grid of gl
// coefficients per (target, source) component pair a*sd+b, into nq
// right-hand sides at once: acc holds nq*td accumulator grids and src
// nq*sd source grids, rhs-major. Element i of accumulator (q, a) gets
// t[a*sd+b][i]*src[(q*sd+b)*gl+i] added over b < sd in order — the
// products and sums of one hadamardAdd call per (a, b, q), made in one
// pass in which each accumulator element is loaded and stored once.
//
// On a CPU with AVX2 and for td, sd ≤ 3 (every built-in kernel) it runs
// accumulateBlockAVX2, which for each pair of frequencies holds the
// whole block in registers across every right-hand side, and the Go
// loop for an odd last frequency; otherwise the Go loop
// accumulateBlockGeneric throughout. The bodies agree bit for bit with
// each other and with the per-component hadamardAdd loop
// (TestAccumulateBodiesAgree).
func accumulateBlock(acc, src []complex128, t [][]complex128, gl, nq, td, sd int) {
	if !cpu.AVX2 || td > 3 || sd > 3 || nq < 1 || td < 1 || sd < 1 {
		accumulateBlockGeneric(acc, src, t, gl, 0, nq, td, sd)
		return
	}
	// The vector body indexes without checks: bound every operand here.
	acc, src, t = acc[:nq*td*gl], src[:nq*sd*gl], t[:td*sd]
	for _, g := range t {
		_ = g[:gl]
	}
	accumulateBlockAVX2(acc, src, t, gl, nq, td, sd)
	if gl%2 == 1 {
		accumulateBlockGeneric(acc, src, t, gl, gl-1, nq, td, sd)
	}
}

// accumulateBlockAVX2 is accumulateBlock's vector body over the even
// prefix of every grid; it requires nq ≥ 1, td and sd in 1..3 and
// operands at least as long as accumulateBlock makes them.
//
//go:noescape
func accumulateBlockAVX2(acc, src []complex128, t [][]complex128, gl, nq, td, sd int)
