//go:build race

package fmm

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random.
const raceEnabled = true
