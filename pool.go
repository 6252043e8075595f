package kifmm

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/fmm"
)

// Pool is an elastic worker-lane pool — one scheduling domain shared by
// every evaluator constructed with it (Options.Pool). Each evaluation
// leases its width from the pool at call time: a lone call on an idle
// pool fans out up to min(Options.Workers, MaxWorkers) lanes, while
// under concurrent load every call degrades toward one lane, shedding
// lanes mid-run as competitors arrive and growing back as they finish.
// Admission itself is the concurrency gate: a call that cannot get a
// lane queues, honoring its context.
//
// Widths are pure scheduling: results are bitwise identical across
// every granted width, including mid-run shrinks, so sharing a pool
// never perturbs numerics. Evaluators built without an explicit Pool
// share a process-wide default sized GOMAXPROCS.
//
// A Pool is safe for concurrent use. Do not Acquire a lease while
// already holding one on the same pool (e.g. from inside work running
// under an evaluation) — under saturation that deadlocks like any
// nested lock.
type Pool struct {
	e *exec.Elastic
}

// NewPool returns an elastic pool with the given lane capacity;
// maxWorkers <= 0 selects GOMAXPROCS.
func NewPool(maxWorkers int) *Pool {
	return &Pool{e: exec.NewElastic(maxWorkers)}
}

// poolFromElastic wraps an engine pool back into the public type (used
// when surfacing engine options through the public Options).
func poolFromElastic(e *exec.Elastic) *Pool {
	if e == nil {
		return nil
	}
	return &Pool{e: e}
}

// elastic unwraps, tolerating a nil receiver (nil means "process
// default" everywhere a Pool is accepted).
func (p *Pool) elastic() *exec.Elastic {
	if p == nil {
		return nil
	}
	return p.e
}

// MaxWorkers returns the pool's lane capacity.
func (p *Pool) MaxWorkers() int { return p.e.Cap() }

// LanesInUse returns the number of lanes currently leased (a gauge;
// never exceeds MaxWorkers).
func (p *Pool) LanesInUse() int { return p.e.InUse() }

// LanesGranted returns the cumulative number of lanes handed out at
// admission across all leases.
func (p *Pool) LanesGranted() int64 { return p.e.GrantedLanes() }

// LeasesGranted returns the number of admissions.
func (p *Pool) LeasesGranted() int64 { return p.e.GrantedLeases() }

// SetAcquireObserver installs a callback run after each admission (an
// evaluation's lease or an embedder Acquire) with the time the caller
// spent queued and the width it was granted — the hook a lease-wait
// histogram hangs off. The callback must be cheap and non-blocking;
// pass nil to remove it.
func (p *Pool) SetAcquireObserver(fn func(wait time.Duration, granted int)) {
	p.e.SetAcquireObserver(fn)
}

// Acquire leases want lanes (want <= 0 means the full capacity) for
// work an embedder schedules alongside evaluations — e.g. the
// evaluation service admits plan builds through the same pool so a
// burst of registrations cannot saturate the machine. The call blocks,
// honoring ctx, until the pool can grant one lane. The returned lease
// must be Released; lanes the pool revokes from it toward other callers
// come back only then, so keep such leases narrow (the service's build
// lease is one lane, which is never revoked).
func (p *Pool) Acquire(ctx context.Context, want int) (*Lease, error) {
	l, err := p.e.Acquire(ctx, want)
	if err != nil {
		return nil, err
	}
	return &Lease{l: l}, nil
}

// Lease is an embedder's claim on pool lanes, from Pool.Acquire until
// Release.
type Lease struct {
	l *exec.Lease
}

// Granted returns the width the lease was admitted with.
func (l *Lease) Granted() int { return l.l.Granted() }

// Width returns the current width (it shrinks when the pool revokes
// lanes toward other callers).
func (l *Lease) Width() int { return l.l.Width() }

// Release returns the lanes to the pool. Idempotent.
func (l *Lease) Release() { l.l.Release() }

// DefaultPool returns the process-wide pool used by evaluators whose
// Options carry no explicit Pool (capacity GOMAXPROCS at first use).
func DefaultPool() *Pool { return &Pool{e: fmm.DefaultPool()} }
