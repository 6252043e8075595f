package translate

import "repro/internal/cpu"

// hadamardAdd accumulates dst[i] += t[i]*s[i]. It is the innermost loop
// of the V-list sweep — the single hottest loop of an evaluation.
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
