package translate

// hasAVX2 is whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches.
var hasAVX2 = detectAVX2()

// hadamardAdd accumulates dst[i] += t[i]*s[i]. It is the innermost loop
// of the V-list sweep — the single hottest loop of an evaluation.
//
// On a CPU with AVX2 it runs hadamardAddAVX2, two complex elements per
// YMM register on the interleaved complex128 layout. That body evaluates
// (tr·sr − ti·si) + i(tr·si + ti·sr) and then the add into dst with
// separate multiplies and adds, in the order Go compiles the loop of
// hadamardAddGeneric to, so the two bodies agree bit for bit and the
// choice between them, made only from the CPU, never changes a result.
// It uses no FMA: a fused multiply-add rounds once where the Go loop
// rounds twice. That rests on the Go compiler not fusing the loop's
// multiplies and adds on amd64 either, which holds for go1.24 at every
// GOAMD64 level (no VFMADD in its code at v3); a compiler that starts
// to fuse fails TestHadamardAddBodiesAgree.
func hadamardAdd(dst, t, s []complex128) {
	if hasAVX2 {
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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
