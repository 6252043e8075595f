package exec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

// acquireWhileSweeping acquires a new lease on e while driving repeated
// sweeps on running — an idle lease only sheds revoked lanes at sweep
// boundaries, so a bare Acquire against a full idle pool would wait
// forever.
func acquireWhileSweeping(t *testing.T, e *Elastic, running *Lease, want int) *Lease {
	t.Helper()
	type res struct {
		l   *Lease
		err error
	}
	c := make(chan res, 1)
	go func() {
		l, err := e.Acquire(bg, want)
		c <- res{l, err}
	}()
	for {
		if err := running.ForRange(bg, 0, 256, func(_, _ int) {}); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-c:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.l
		default:
		}
	}
}

// TestAcquireIdleGrantsFullWant: the headline adaptive property — a lone
// caller on an idle pool gets its whole ceiling, and want <= 0 means the
// full capacity.
func TestAcquireIdleGrantsFullWant(t *testing.T) {
	e := NewElastic(8)
	for _, tc := range []struct{ want, grant int }{{8, 8}, {3, 3}, {0, 8}, {-1, 8}, {99, 8}} {
		l, err := e.Acquire(bg, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if l.Granted() != tc.grant {
			t.Errorf("Acquire(want=%d) granted %d, want %d", tc.want, l.Granted(), tc.grant)
		}
		if got := e.LanesInUse(); got != tc.grant {
			t.Errorf("LanesInUse = %d after grant of %d", got, tc.grant)
		}
		l.Release()
		if got := e.LanesInUse(); got != 0 {
			t.Errorf("LanesInUse = %d after release", got)
		}
	}
	if e.LeasesGranted() != 5 {
		t.Errorf("LeasesGranted = %d, want 5", e.LeasesGranted())
	}
}

// TestAcquireDegradesUnderLoad: sequential admissions (none running a
// sweep, so no lanes flow back) split the free lanes while respecting
// the floor, and InUse never exceeds capacity.
func TestAcquireDegradesUnderLoad(t *testing.T) {
	e := NewElastic(4)
	l1, err := e.Acquire(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Granted() != 4 {
		t.Fatalf("first lease granted %d, want 4", l1.Granted())
	}
	// l1 holds everything; a second Acquire revokes l1's target and
	// waits for its sweeps to shed the lanes.
	l2 := acquireWhileSweeping(t, e, l1, 0)
	if g := l2.Granted(); g < 1 || g > 2 {
		t.Errorf("second lease granted %d lanes, want 1..2 (fair share of 4 across 2)", g)
	}
	if in := e.LanesInUse(); in > e.MaxWorkers() {
		t.Errorf("LanesInUse %d exceeds capacity %d", in, e.MaxWorkers())
	}
	l1.Release()
	l2.Release()
}

// TestLeaseShedsLanesMidSweep: a long-running sweep hands revoked lanes
// back at chunk-claim boundaries — a competing Acquire is admitted while
// the first sweep is still running, and the first lease's width has
// dropped toward the fair share.
func TestLeaseShedsLanesMidSweep(t *testing.T) {
	e := NewElastic(4)
	l1, err := e.Acquire(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepDone := make(chan error, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	go func() {
		sweepDone <- l1.ForRange(bg, 0, 1<<20, func(_, i int) {
			once.Do(func() { close(started) })
			// Hold the sweep open until the competitor is admitted.
			select {
			case <-release:
			default:
				spin()
			}
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	l2, err := e.Acquire(ctx, 2)
	if err != nil {
		t.Fatalf("competing Acquire not admitted while sweep running: %v", err)
	}
	if l2.Granted() < 1 {
		t.Errorf("competitor granted %d lanes", l2.Granted())
	}
	if w := l1.Width(); w > 2 {
		t.Errorf("running lease width %d after revocation, want <= 2", w)
	}
	close(release)
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
	l1.Release()
	l2.Release()
	if e.LanesInUse() != 0 {
		t.Errorf("LanesInUse = %d after all releases", e.LanesInUse())
	}
}

// TestLeaseGrowsBackAtDispatch: after the competition releases, the
// surviving lease fans back out to its ceiling at its next ForRange.
func TestLeaseGrowsBackAtDispatch(t *testing.T) {
	e := NewElastic(4)
	l1, err := e.Acquire(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2 := acquireWhileSweeping(t, e, l1, 0) // revokes l1 toward 2
	if w := l1.Width(); w > 2 {
		t.Fatalf("l1 width %d with competitor admitted, want <= 2", w)
	}
	l2.Release()
	if err := l1.ForRange(bg, 0, 64, func(_, _ int) {}); err != nil {
		t.Fatal(err)
	}
	if w := l1.Width(); w != 4 {
		t.Errorf("l1 width %d after competitor released, want 4 (regrown at dispatch)", w)
	}
	l1.Release()
}

// TestAcquirePreCancelled: a dead context never admits.
func TestAcquirePreCancelled(t *testing.T) {
	e := NewElastic(2)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := e.Acquire(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if e.LanesInUse() != 0 {
		t.Errorf("LanesInUse = %d after failed Acquire", e.LanesInUse())
	}
}

// TestElasticSoak is the race/soak test of the elastic pool: concurrent
// leases acquiring, sweeping, shrinking under competition, being
// cancelled and released, with invariant checks (every index exactly
// once per sweep, InUse <= Cap) and a goroutine-leak check at the end.
// Run under -race in CI.
func TestElasticSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	const capacity = 4
	e := NewElastic(capacity)
	callers := 8
	rounds := 30
	if testing.Short() {
		callers, rounds = 4, 10
	}

	// Invariant prober: InUse must never exceed capacity.
	probeStop := make(chan struct{})
	var probeBad atomic.Int32
	go func() {
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			if in := e.LanesInUse(); in < 0 || in > capacity {
				probeBad.Add(1)
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, callers*rounds)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(bg)
				want := 1 + rng.Intn(capacity)
				l, err := e.Acquire(ctx, want)
				if err != nil {
					cancel()
					errc <- err
					return
				}
				n := 512 + rng.Intn(2048)
				counts := make([]atomic.Int32, n)
				if rng.Intn(4) == 0 {
					// Cancel mid-sweep sometimes.
					go func() {
						runtime.Gosched()
						cancel()
					}()
				}
				err = l.ForRange(ctx, 0, n, func(_, i int) {
					counts[i].Add(1)
					if i%64 == 0 {
						runtime.Gosched()
					}
				})
				if err == nil {
					for i := range counts {
						if counts[i].Load() != 1 {
							errc <- errors.New("index ran wrong number of times in completed sweep")
							break
						}
					}
				} else if !errors.Is(err, context.Canceled) {
					errc <- err
				}
				l.Release()
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	close(probeStop)
	if probeBad.Load() != 0 {
		t.Errorf("InUse left [0, %d] %d times during soak", capacity, probeBad.Load())
	}
	if in := e.LanesInUse(); in != 0 {
		t.Errorf("LanesInUse = %d after every lease released", in)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before soak, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNarrowLeaseClaimsOnlyItsWant: allocation is want-weighted
// water-filling, not an equal split — a width-1 claimant (a plan
// build) revokes a running width-8 evaluation by exactly one lane, and
// division remainders go to the wide claimants instead of idling.
func TestNarrowLeaseClaimsOnlyItsWant(t *testing.T) {
	e := NewElastic(8)
	l1, err := e.Acquire(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	build := acquireWhileSweeping(t, e, l1, 1)
	if build.Granted() != 1 {
		t.Errorf("width-1 claimant granted %d lanes", build.Granted())
	}
	if err := l1.ForRange(bg, 0, 256, func(_, _ int) {}); err != nil {
		t.Fatal(err)
	}
	if w := l1.Width(); w != 7 {
		t.Errorf("wide lease settled at %d next to a width-1 build, want 7 (8 - 1, not an equal 4/4 split)", w)
	}
	build.Release()
	// Remainders flow instead of flooring: three full-width leases on 8
	// lanes must settle to 2+3+3, not 2+2+2 with two lanes idle.
	l2 := acquireWhileSweeping(t, e, l1, 0)
	l3 := acquireWhileSweeping(t, e, l1, 0)
	widths := []int{0, 0, 0}
	settle := func() {
		for i, l := range []*Lease{l1, l2, l3} {
			if err := l.ForRange(bg, 0, 256, func(_, _ int) {}); err != nil {
				t.Fatal(err)
			}
			widths[i] = l.Width()
		}
	}
	settle()
	settle() // second pass: lanes shed by one lease get reclaimed by another
	total := widths[0] + widths[1] + widths[2]
	if total != 8 {
		t.Errorf("three full-width leases settled at %v (total %d), want the full 8 lanes allocated", widths, total)
	}
	for i, w := range widths {
		if w < 2 {
			t.Errorf("lease %d settled at %d, want >= 2", i, w)
		}
	}
	l1.Release()
	l2.Release()
	l3.Release()
	if e.LanesInUse() != 0 {
		t.Errorf("LanesInUse = %d after releases", e.LanesInUse())
	}
}

// TestReleaseIdempotent: double release must not corrupt lane
// accounting.
func TestReleaseIdempotent(t *testing.T) {
	e := NewElastic(3)
	l, _ := e.Acquire(bg, 2)
	l.Release()
	l.Release()
	if e.LanesInUse() != 0 {
		t.Errorf("LanesInUse = %d", e.LanesInUse())
	}
	if l2, err := e.Acquire(bg, 3); err != nil || l2.Granted() != 3 {
		t.Errorf("pool unusable after double release: %v, granted %d", err, l2.Granted())
	}
}

// queueAcquire starts an Acquire(ctx, 1) on a full pool and returns once
// it is queued; the lease, or nil if ctx ended the wait, arrives on the
// returned channel.
func queueAcquire(t *testing.T, e *Elastic, ctx context.Context) <-chan *Lease {
	t.Helper()
	e.mu.Lock()
	queued := len(e.waiters)
	e.mu.Unlock()
	got := make(chan *Lease, 1)
	go func() {
		l, _ := e.Acquire(ctx, 1)
		got <- l
	}()
	for {
		e.mu.Lock()
		n := len(e.waiters)
		e.mu.Unlock()
		if n > queued {
			return got
		}
		runtime.Gosched()
	}
}

// TestAcquireAdmitsInArrivalOrder: callers queued on a full pool are
// admitted in the order they arrived — a caller that releases and at once
// re-acquires goes behind the ones already waiting — and a queued caller
// giving up does not strand the one behind it.
func TestAcquireAdmitsInArrivalOrder(t *testing.T) {
	// next returns want's lease, failing if o1 or o2 (nil for none) is
	// admitted before it.
	next := func(round int, want <-chan *Lease, name string, o1, o2 <-chan *Lease) *Lease {
		t.Helper()
		select {
		case l := <-want:
			return l
		case <-o1:
		case <-o2:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: %s was not admitted", round, name)
		}
		t.Fatalf("round %d: a later caller was admitted before %s", round, name)
		return nil
	}
	for round := 0; round < 50; round++ {
		e := NewElastic(1)
		hold, err := e.Acquire(bg, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := queueAcquire(t, e, bg)
		c := queueAcquire(t, e, bg)
		d := make(chan *Lease, 1)
		go func() { // the closed-loop caller: release, re-acquire at once
			hold.Release()
			l, _ := e.Acquire(bg, 1)
			d <- l
		}()
		next(round, b, "B", c, d).Release()
		next(round, c, "C", d, nil).Release()
		next(round, d, "the re-acquiring caller", nil, nil).Release()
		if in := e.LanesInUse(); in != 0 {
			t.Fatalf("round %d: LanesInUse = %d after all releases", round, in)
		}

		// B gives up just as the lane frees: C is first in line now.
		hold, err = e.Acquire(bg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		b = queueAcquire(t, e, ctx)
		c = queueAcquire(t, e, bg)
		go cancel()
		hold.Release()
		if l := <-b; l != nil { // B may win the race with its own cancel
			l.Release()
		}
		next(round, c, "the caller behind a cancelled one", nil, nil).Release()
	}
}
