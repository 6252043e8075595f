package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// leaseOf returns a lease of exactly w lanes on a fresh, otherwise idle
// pool of capacity w (an idle pool grants the full want).
func leaseOf(t testing.TB, w int) *Lease {
	t.Helper()
	l, err := NewElastic(w).Acquire(context.Background(), w)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Granted() != w {
		t.Fatalf("idle pool granted %d lanes, want %d", l.Granted(), w)
	}
	return l
}

func TestNewElasticDefaultsToGOMAXPROCS(t *testing.T) {
	for _, w := range []int{0, -3} {
		if got := NewElastic(w).MaxWorkers(); got != runtime.GOMAXPROCS(0) {
			t.Errorf("NewElastic(%d).MaxWorkers() = %d, want GOMAXPROCS", w, got)
		}
	}
	if got := NewElastic(5).MaxWorkers(); got != 5 {
		t.Errorf("NewElastic(5).MaxWorkers() = %d", got)
	}
}

// TestForRangeCoversEveryIndex: each index in [lo, hi) runs exactly once,
// for lease widths below, at and above the range size.
func TestForRangeCoversEveryIndex(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 32} {
		l := leaseOf(t, workers)
		for _, span := range [][2]int{{0, 0}, {3, 3}, {0, 1}, {2, 7}, {0, 1000}} {
			lo, hi := span[0], span[1]
			counts := make([]atomic.Int32, hi+1)
			if err := l.ForRange(ctx, lo, hi, func(_, i int) {
				if i < lo || i >= hi {
					t.Errorf("index %d outside [%d, %d)", i, lo, hi)
					return
				}
				counts[i].Add(1)
			}); err != nil {
				t.Fatalf("ForRange: %v", err)
			}
			for i := lo; i < hi; i++ {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d range=[%d,%d): index %d ran %d times", workers, lo, hi, i, c)
				}
			}
		}
		l.Release()
	}
}

// TestForRangeWorkerIDs: worker ids stay in [0, MaxWidth()) so they can
// index per-worker scratch.
func TestForRangeWorkerIDs(t *testing.T) {
	l := leaseOf(t, 4)
	defer l.Release()
	var bad atomic.Int32
	_ = l.ForRange(context.Background(), 0, 500, func(w, _ int) {
		if w < 0 || w >= l.MaxWidth() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d invocations saw an out-of-range worker id", bad.Load())
	}
}

// TestForRangeBarrier: ForRange must not return before every invocation
// finished (per-worker sums merged after the call must account for all
// indices).
func TestForRangeBarrier(t *testing.T) {
	l := leaseOf(t, 8)
	defer l.Release()
	sums := make([]int64, l.MaxWidth())
	const n = 4096
	if err := l.ForRange(context.Background(), 0, n, func(w, i int) { sums[w] += int64(i) }); err != nil {
		t.Fatalf("ForRange: %v", err)
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if want := int64(n) * (n - 1) / 2; total != want {
		t.Errorf("per-worker sums total %d, want %d", total, want)
	}
}

// TestForRangePanicPropagates: a panic on a worker goroutine resurfaces
// on the calling goroutine where recover works.
func TestForRangePanicPropagates(t *testing.T) {
	l := leaseOf(t, 4)
	defer l.Release()
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want \"boom\"", r)
		}
	}()
	_ = l.ForRange(context.Background(), 0, 100, func(_, i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Error("ForRange returned instead of panicking")
}

// spin burns a short, scheduler-visible amount of CPU so a cancelled
// sweep demonstrably stops early without relying on timer granularity.
func spin() {
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
}

// TestForRangePreCancelled: a context cancelled before dispatch means no
// invocation runs at all.
func TestForRangePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		l := leaseOf(t, workers)
		var ran atomic.Int32
		err := l.ForRange(ctx, 0, 1000, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d invocations ran after pre-cancel", workers, ran.Load())
		}
		l.Release()
	}
}

// TestForRangeCancelMidSweep: cancelling while a sweep is running stops
// further chunk claims — the sweep returns early with ctx.Err() and
// without processing the whole range, on both the sequential and the
// parallel path.
func TestForRangeCancelMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		l := leaseOf(t, workers)
		const n = 3200
		var ran atomic.Int64
		err := l.ForRange(ctx, 0, n, func(_, i int) {
			if ran.Add(1) == 64 {
				cancel()
			}
			spin()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got == n {
			t.Errorf("workers=%d: sweep ran all %d indices despite cancellation", workers, got)
		}
		cancel()
		l.Release()
	}
}

// TestForRangeCancelLeavesNoWorkers: after a cancelled parallel sweep
// returns, its worker goroutines are gone (the barrier drained them).
func TestForRangeCancelLeavesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		l := leaseOf(t, 8)
		var ran atomic.Int64
		_ = l.ForRange(ctx, 0, 1<<14, func(_, _ int) {
			if ran.Add(1) == 10 {
				cancel()
			}
			spin()
		})
		cancel()
		l.Release()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled sweeps", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
