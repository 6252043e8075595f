//go:build !amd64

package cpu

func detectAVX2() bool { return false }
