//go:build !race

package fmm

const raceEnabled = false
