//go:build !amd64

package translate

// hadamardAdd accumulates dst[i] += t[i]*s[i] (see hadamard_amd64.go);
// this build has only the Go body.
func hadamardAdd(dst, t, s []complex128) { hadamardAddGeneric(dst, t, s) }
