package translate

// hadamardAddGeneric accumulates dst[i] += t[i]*s[i] in Go. It is
// hadamardAdd's only body on builds other than amd64 and on CPUs without
// AVX2, and the reference the vector body is tested against bit for bit.
func hadamardAddGeneric(dst, t, s []complex128) {
	t = t[:len(dst)]
	s = s[:len(dst)]
	for i := range dst {
		dst[i] += t[i] * s[i]
	}
}
