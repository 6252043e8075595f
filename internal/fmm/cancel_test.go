package fmm

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// cancelFixture builds an evaluator big enough that an evaluation spans
// many pool dispatches, so a mid-sweep cancellation has passes left to
// skip.
func cancelFixture(t *testing.T, workers int) (*Evaluator, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pts := geom.Flatten(geom.UniformCube(rng, 4000))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 40, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e, geom.RandomDensities(rng, len(pts)/3, 1)
}

// TestEvaluateCtxPreCancelled: an already-cancelled context fails fast
// with the typed error and runs no pass at all.
func TestEvaluateCtxPreCancelled(t *testing.T) {
	e, den := cancelFixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := eval(ctx, e, den)
	if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
	}
	// A full evaluation takes tens of milliseconds at this size; the
	// pre-cancelled path must be near-instant.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("pre-cancelled evaluation took %v", d)
	}
}

// TestEvaluateCtxCancelMidSweep: cancelling while the sweep runs aborts
// it early — well under the uncancelled runtime — with the typed error,
// on both the sequential and the parallel engine path.
func TestEvaluateCtxCancelMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, den := cancelFixture(t, workers)
		// Reference uncancelled runtime (also warms lazily built
		// operators, so the cancelled run's early passes are cheap and
		// timing reflects sweep work, not operator construction).
		start := time.Now()
		if _, _, err := eval(context.Background(), e, den); err != nil {
			t.Fatal(err)
		}
		full := time.Since(start)

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(full / 8)
			cancel()
		}()
		start = time.Now()
		_, _, err := eval(ctx, e, den)
		aborted := time.Since(start)
		if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled and context.Canceled", workers, err)
		}
		if aborted > full*3/4 {
			t.Errorf("workers=%d: cancelled evaluation ran %v of an uncancelled %v — not within one pass", workers, aborted, full)
		}
		// The evaluator must stay fully usable after an aborted sweep.
		if _, _, err := eval(context.Background(), e, den); err != nil {
			t.Errorf("workers=%d: evaluation after cancel failed: %v", workers, err)
		}
	}
}

// TestEvaluateCtxDeadline: a deadline maps onto ErrDeadlineExceeded,
// distinct from ErrCanceled.
func TestEvaluateCtxDeadline(t *testing.T) {
	e, den := cancelFixture(t, 1)
	if _, _, err := eval(bg, e, den); err != nil { // warm operators
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := eval(ctx, e, den)
	if !errors.Is(err, errs.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded and context.DeadlineExceeded", err)
	}
	if errors.Is(err, errs.ErrCanceled) {
		t.Error("deadline error must not match ErrCanceled")
	}
}

// TestNewCtxCancelled: the plan build honors its context.
func TestNewCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := geom.Flatten(geom.UniformCube(rng, 500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewCtx(ctx, pts, pts, Options{Kernel: kernels.Laplace{}}); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("NewCtx on cancelled ctx: err = %v, want ErrCanceled", err)
	}
	// Invalid input beats the ctx check order only for the nil kernel,
	// which needs no work at all.
	if _, err := NewCtx(ctx, pts, pts, Options{}); !errors.Is(err, errs.ErrInvalidInput) {
		t.Fatalf("NewCtx without kernel: err = %v, want ErrInvalidInput", err)
	}
}

// TestCancelLeavesNoGoroutines: repeated cancelled evaluations must not
// leak pool workers (the barrier drains them before EvaluateCtx
// returns).
func TestCancelLeavesNoGoroutines(t *testing.T) {
	e, den := cancelFixture(t, 4)
	if _, _, err := eval(bg, e, den); err != nil { // warm operators
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		if _, _, err := eval(ctx, e, den); err == nil {
			t.Log("evaluation outran the cancel; still fine")
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled evaluations", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
