//go:build !amd64

package translate

// hadamardAdd accumulates dst[i] += t[i]*s[i] (see hadamard_amd64.go);
// this build has only the Go body.
func hadamardAdd(dst, t, s []complex128) { hadamardAddGeneric(dst, t, s) }

// accumulateBlock applies a tensor block to a batch (see
// hadamard_amd64.go); this build has only the Go body.
func accumulateBlock(acc, src []complex128, t [][]complex128, gl, nq, td, sd int) {
	accumulateBlockGeneric(acc, src, t, gl, 0, nq, td, sd)
}
