//go:build race

package linalg

// raceEnabled reports a -race build, which runs the scalar loops of the
// SVD some twenty times slower.
const raceEnabled = true
