//go:build race

package fmm

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random (the FFT M2L's volume and transform scratch live in such
// pools).
const raceEnabled = true
