// Package cpu reports the instruction-set features the engine's vector
// loops need. It is the one place the CPU is asked: packages with an
// assembly body read AVX2 at call time and run their Go loop when it is
// false, so a test can force the Go body by clearing it.
package cpu

// AVX2 is whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches. It is always false off amd64.
var AVX2 = detectAVX2()
