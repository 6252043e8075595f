package exec

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLeaseRegrowsMidSweep: a sweep admitted at a shrunk width fans
// back out *during the pass* once the competitor releases — worker ids
// beyond the shrunk width appear before the barrier, and the lease ends
// the sweep at its full ceiling.
func TestLeaseRegrowsMidSweep(t *testing.T) {
	e := NewElastic(4)
	l1, err := e.Acquire(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2 := acquireWhileSweeping(t, e, l1, 0) // revokes l1 toward 2
	if err := l1.ForRange(bg, 0, 64, func(_, _ int) {}); err != nil {
		t.Fatal(err) // settle l1 at the shrunk width
	}
	if w := l1.Width(); w > 2 {
		t.Fatalf("l1 width %d with competitor admitted, want <= 2", w)
	}

	counts := make([]int64, l1.MaxWidth())
	var releaseOnce sync.Once
	err = l1.ForRange(bg, 0, 1<<14, func(wk, _ int) {
		atomic.AddInt64(&counts[wk], 1)
		// First processed item: the competitor leaves. From here the
		// pool is idle and worker 0's chunk-boundary poll must claim
		// the freed lanes mid-pass.
		releaseOnce.Do(l2.Release)
		spin()
	})
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for wk := 2; wk < len(counts); wk++ {
		if counts[wk] > 0 {
			grew++
		}
	}
	if grew == 0 {
		t.Errorf("no worker beyond the shrunk width ran: counts %v (sweep never regrew mid-pass)", counts)
	}
	if w := l1.Width(); w != 4 {
		t.Errorf("l1 width %d after mid-sweep regrowth, want 4", w)
	}
	l1.Release()
	if e.LanesInUse() != 0 {
		t.Errorf("LanesInUse = %d after release", e.LanesInUse())
	}
}

// growSweep runs one n-item sweep under l, writing a deterministic
// per-index value through per-worker scratch (sized MaxWidth — a worker
// id collision would corrupt it), and calls hook with the number of
// items completed so far.
func growSweep(t *testing.T, l *Lease, n int, hook func(done int)) []float64 {
	t.Helper()
	out := make([]float64, n)
	scratch := make([][8]float64, l.MaxWidth())
	var count atomic.Int64
	err := l.ForRange(bg, 0, n, func(wk, i int) {
		s := &scratch[wk]
		for j := range s {
			s[j] = float64(i*31 + j)
		}
		acc := 0.0
		for j := range s {
			acc += math.Sqrt(s[j] + 1)
		}
		out[i] = acc
		if hook != nil {
			hook(int(count.Add(1)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestForRangeWidthDeterminism: identical outputs across width
// schedules — undisturbed, shrink mid-sweep, and shrink-then-regrow
// mid-sweep. Growth reuses retired worker ids smallest-first, so live
// ids never collide on scratch; any violation shows up as a corrupted
// output (and as a data race under -race).
func TestForRangeWidthDeterminism(t *testing.T) {
	const n = 1 << 15

	// Reference: width-1 pool, strictly serial.
	ref := func() []float64 {
		e := NewElastic(1)
		l, err := e.Acquire(bg, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
		return growSweep(t, l, n, nil)
	}()

	check := func(name string, got []float64) {
		t.Helper()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: output[%d] = %v, want %v (width schedule changed results)", name, i, got[i], ref[i])
			}
		}
	}

	// Undisturbed full width.
	{
		e := NewElastic(8)
		l, err := e.Acquire(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("undisturbed", growSweep(t, l, n, nil))
		l.Release()
	}

	// Shrink mid-sweep: a competitor arrives a quarter of the way in
	// and holds to the end. (The admission may land mid-sweep or — on a
	// slow scheduler — only once the follow-up mini-sweeps shed lanes;
	// either way the big sweep saw a revocation schedule and its output
	// must be unchanged.)
	{
		e := NewElastic(8)
		l, err := e.Acquire(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var comp *Lease
		var compErr error
		admitted := make(chan struct{})
		var once sync.Once
		out := growSweep(t, l, n, func(done int) {
			if done >= n/4 {
				once.Do(func() {
					go func() {
						comp, compErr = e.Acquire(bg, 4)
						close(admitted)
					}()
				})
			}
		})
		check("shrink", out)
		for { // drive shedding until the competitor is admitted
			select {
			case <-admitted:
			default:
				if err := l.ForRange(bg, 0, 256, func(_, _ int) {}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			break
		}
		if compErr != nil {
			t.Fatalf("competitor not admitted: %v", compErr)
		}
		comp.Release()
		l.Release()
	}

	// Start narrow, regrow mid-sweep: the lease is shrunk by a
	// competitor before the sweep starts; the competitor releases half
	// way through and the sweep reclaims the lanes (reusing retired
	// worker ids) before the barrier.
	{
		e := NewElastic(8)
		l, err := e.Acquire(bg, 0)
		if err != nil {
			t.Fatal(err)
		}
		comp := acquireWhileSweeping(t, e, l, 4)
		if err := l.ForRange(bg, 0, 256, func(_, _ int) {}); err != nil {
			t.Fatal(err) // settle l at its shrunk width
		}
		if w := l.Width(); w >= 8 {
			t.Fatalf("l width %d with competitor admitted, want < 8", w)
		}
		var relOnce sync.Once
		out := growSweep(t, l, n, func(done int) {
			if done >= n/2 {
				relOnce.Do(comp.Release)
			}
		})
		check("shrink+regrow", out)
		l.Release()
		if e.LanesInUse() != 0 {
			t.Errorf("LanesInUse = %d after all releases", e.LanesInUse())
		}
	}
}
