package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	kifmm "repro"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// relL2 is ||a-b|| / ||b||.
func relL2(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// accuracySamples is how many targets the accuracy check compares
// against direct summation.
const accuracySamples = 256

// accuracyDigits is -log10 of the root-mean-square relative error of pot
// (TargetDim values per point of pts, sources = targets) against
// kifmm.Direct on accuracySamples seeded targets, each target's error
// taken relative to its own potential. A relative L2 norm over all
// samples would be set by the few targets that have a near-coincident
// neighbour (their potentials are orders of magnitude larger and come
// from exact direct terms): on the clustered workload it swings between
// 6.8 and 9.2 digits with the seed.
func accuracyDigits(seed int64, k kifmm.Kernel, pts, den, pot []float64) (float64, error) {
	n := len(pts) / 3
	td := k.TargetDim()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	m := min(accuracySamples, n)
	picks := rng.Perm(n)[:m]
	trg := make([]float64, 0, 3*m)
	for _, i := range picks {
		trg = append(trg, pts[3*i:3*i+3]...)
	}
	ref, err := kifmm.Direct(k, trg, pts, den)
	if err != nil {
		return 0, err
	}
	var sum float64
	for j, i := range picks {
		var num, norm float64
		for c := 0; c < td; c++ {
			d := pot[td*i+c] - ref[td*j+c]
			num += d * d
			norm += ref[td*j+c] * ref[td*j+c]
		}
		sum += num / norm
	}
	return -math.Log10(math.Sqrt(sum / float64(m))), nil
}

// timeLoop calls fn in three rounds of at least 30 ms each and returns
// the median nanoseconds per call over the rounds.
func timeLoop(fn func()) float64 {
	const rounds, minRound = 3, 30 * time.Millisecond
	per := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < minRound {
			fn()
			calls++
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return median(per)
}
