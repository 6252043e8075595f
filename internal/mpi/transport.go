package mpi

import "time"

// Transport is the communication surface the parallel algorithm
// (internal/parfmm) runs over: point-to-point float64 sends with
// (source, tag) matching, the collectives of paper Section 3.1, and the
// counters/observer hooks the observability layer consumes.
//
// Two implementations exist: *Comm, the in-process simulation with
// virtual clocks (this package), and the TCP transport of
// internal/cluster, which carries the same operations over
// length-prefixed binary frames between real processes. Algorithm code
// written against Transport runs unchanged on either.
//
// Semantics every implementation must provide:
//
//   - Sends are eager and never block; receives block until a matching
//     (src, tag) message arrives. Messages from one (src, tag) pair are
//     delivered in send order.
//   - Collectives synchronize all ranks; every rank receives the same
//     result.
//   - On unrecoverable transport failure (a peer is lost mid-job)
//     methods panic rather than return errors — matching Run's
//     panic-per-rank model — and the host recovers at the rank boundary.
//   - Elapsed is the rank's running clock since the job origin (virtual
//     for the simulation, wall for real transports); Event timestamps
//     are offsets on that clock.
//   - SetObserver installs the communication-ledger callback; it runs on
//     the rank's goroutine and must be cheap and non-blocking.
type Transport interface {
	Rank() int
	Size() int

	SendFloat64s(dst, tag int, data []float64)
	RecvFloat64s(src, tag int) []float64

	AllreduceInt64(op ReduceOp, in []int64) []int64
	AllreduceFloat64(op ReduceOp, in []float64) []float64

	Elapsed() time.Duration
	CommTime() time.Duration
	BytesSent() int64
	BytesRecv() int64
	Messages() int64

	SetObserver(fn func(Event))
}

// The in-process simulation is one Transport implementation.
var _ Transport = (*Comm)(nil)
