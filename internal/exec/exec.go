// Package exec is the shared-memory parallel execution engine of the
// FMM. The paper's central observation is that every FMM pass
// decomposes into independent per-box work items synchronized only at
// level boundaries; Lease.ForRange is exactly that shape — fan a
// half-open index range out over worker lanes, barrier at the end.
//
// Lanes come from a process-wide Elastic pool rather than a per-caller
// fixed-width pool: each evaluation Acquires a lease sized by current
// load (the whole machine when idle, degrading toward one lane under
// saturation), and running sweeps shed revoked lanes at
// chunk-claim boundaries so long evaluations shrink as new callers
// arrive. See Elastic for the scheduling contract.
//
// Each ForRange invocation hands the callback a stable worker id in
// [0, Lease.MaxWidth()) so callers can keep per-worker scratch buffers
// and statistics without locks, merging them after the barrier.
//
// ForRange is context-aware: it checks ctx at dispatch and each worker
// checks it between chunk claims, so a cancellation lands within one
// chunk of work plus the barrier — which is what lets a cancelled FMM
// evaluation return within a single pass instead of running the sweep
// to completion.
package exec

// grainFor picks the dynamic-scheduling chunk size: small enough that an
// uneven work distribution (adaptive trees concentrate points in few
// boxes) keeps every worker busy, large enough that the atomic fetch-add
// is off the critical path. Cancellation and lane-revocation checks ride
// the same cadence — one atomic load each per chunk — so an undisturbed
// run pays a handful of atomic loads per pass, not one per index.
func grainFor(n, workers int) int {
	g := n / (workers * 8)
	if g < 1 {
		g = 1
	}
	return g
}
