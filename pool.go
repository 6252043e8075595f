package kifmm

import (
	"repro/internal/exec"
	"repro/internal/fmm"
)

// Pool is the engine's elastic worker-lane pool — one scheduling domain
// shared by every evaluator constructed with it (Options.Pool). Each
// evaluation leases its width from the pool at call time: a lone call on
// an idle pool fans out up to min(Options.Workers, MaxWorkers) lanes,
// while under concurrent load every call degrades toward one lane,
// shedding lanes mid-run as competitors arrive and growing back as they
// finish. Admission itself is the concurrency gate: a call that cannot
// get a lane queues, in arrival order, honoring its context.
//
// Widths are pure scheduling: results are bitwise identical across
// every granted width, including mid-run shrinks, so sharing a pool
// never perturbs numerics. Evaluators built without an explicit Pool
// share a process-wide default sized GOMAXPROCS.
//
// A Pool is safe for concurrent use. An embedder schedules its own work
// alongside evaluations with Acquire — the evaluation service admits
// plan builds through the same pool so a burst of registrations cannot
// saturate the machine. Lanes the pool revokes from such a lease toward
// other callers come back only at Release, so keep it narrow (a one-lane
// lease is never revoked), and do not Acquire while already holding a
// lease on the same pool — under saturation that deadlocks like any
// nested lock.
type Pool = exec.Elastic

// Lease is a claim on pool lanes, from Pool.Acquire until Release.
type Lease = exec.Lease

// NewPool returns an elastic pool with the given lane capacity;
// maxWorkers <= 0 selects GOMAXPROCS.
func NewPool(maxWorkers int) *Pool { return exec.NewElastic(maxWorkers) }

// DefaultPool returns the process-wide pool used by evaluators whose
// Options carry no explicit Pool (capacity GOMAXPROCS at first use).
func DefaultPool() *Pool { return fmm.DefaultPool() }
