// Package mpi is an in-process message-passing library with the subset
// of MPI semantics the paper's parallel algorithm needs: eager
// point-to-point sends with (source, tag) matching, blocking receives,
// and the collectives MPI_Allreduce / MPI_Barrier. It replaces the MPI
// dependency the Go port lacks.
//
// Ranks are goroutines, but execution is serialized by a token so that
// exactly one rank computes at a time. That makes the simulation
// deterministic on any machine and lets each rank meter its own compute
// time with a wall clock: while a rank holds the token, elapsed wall
// time is that rank's compute time. Communication advances a per-rank
// virtual clock using a latency/bandwidth machine model (a LogP-style
// simulation of the Quadrics-class interconnect of the paper's TCS-1
// platform). Scalability experiments then report virtual wall-clock
// time T(P) = max over ranks of virtual time, which reproduces the
// *shape* of the paper's scalability results on a single host.
package mpi

import (
	"fmt"
	"time"
)

// Machine models the communication hardware.
type Machine struct {
	// Latency is the end-to-end message latency (MPI alpha term).
	Latency time.Duration
	// Bandwidth is the per-link bandwidth in bytes/second (beta term).
	Bandwidth float64
	// SendOverhead is the CPU time a sender is occupied per message.
	SendOverhead time.Duration
	// RecvOverhead is the CPU time a receiver is occupied per message.
	RecvOverhead time.Duration
}

// DefaultMachine approximates the paper's testbed interconnect
// (Quadrics: ~5us MPI latency, ~250 MB/s effective per-process
// bandwidth with 4 processes per node sharing a rail).
func DefaultMachine() Machine {
	return Machine{
		Latency:      5 * time.Microsecond,
		Bandwidth:    250e6,
		SendOverhead: 500 * time.Nanosecond,
		RecvOverhead: 500 * time.Nanosecond,
	}
}

// transferTime returns the wire time of a message of n bytes.
func (m Machine) transferTime(n int) time.Duration {
	if m.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.Bandwidth * float64(time.Second))
}

type message struct {
	src, tag int
	data     []float64
	bytes    int
	sent     time.Duration // sender's virtual clock at enqueue completion
	avail    time.Duration // virtual time at which the payload is available
}

// EventKind discriminates communication-ledger events.
type EventKind uint8

// Event kinds.
const (
	// EventSend is a point-to-point send (never blocks in this model).
	EventSend EventKind = iota
	// EventRecv is a blocking point-to-point receive.
	EventRecv
	// EventCollective is one rank's participation in a collective.
	EventCollective
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventRecv:
		return "recv"
	case EventCollective:
		return "collective"
	}
	return "unknown"
}

// Event is one communication-ledger record, delivered to the observer
// installed with SetObserver as the operation completes, and what a
// rank's timeline (obs.RankTimeline) keeps and ships as JSON. All times
// are offsets on the recording rank's clock (Transport.Elapsed), except
// Sent and DepTime, which are on the dependency rank's clock.
type Event struct {
	Kind EventKind `json:"kind"`
	// Rank is the recording rank; Peer the destination (send) or
	// source (recv), -1 for collectives.
	Rank int `json:"rank"`
	Peer int `json:"peer"`
	// Tag is the point-to-point tag, or the collective sequence number.
	Tag   int `json:"tag"`
	Bytes int `json:"bytes"`
	// Start/End delimit the operation on the recording rank's clock.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Sent is the sender's clock at enqueue completion; Avail when the
	// payload became deliverable (Sent + latency). Send events carry
	// their own enqueue/delivery times here; collectives leave both 0.
	// Avail is for the observer only: no reader of a shipped ledger uses
	// it, so it stays out of the JSON.
	Sent  time.Duration `json:"sent_ns,omitempty"`
	Avail time.Duration `json:"-"`
	// Wait is the blocked time: for a recv, until the payload arrived;
	// for a collective, until the last rank entered and the
	// synchronization cost elapsed.
	Wait time.Duration `json:"wait_ns,omitempty"`
	// DepRank/DepTime name the cross-rank dependency a blocked
	// operation waited on (the sender at its enqueue time, or the last
	// rank to enter a collective at its entry time); DepRank is -1 when
	// the operation did not block on another rank.
	DepRank int           `json:"dep_rank"`
	DepTime time.Duration `json:"dep_time_ns,omitempty"`
}

// SetObserver installs fn as this rank's communication observer: every
// Send, Recv and collective reports an Event as it completes, on the
// rank's own goroutine (mirroring Elastic.SetAcquireObserver — the
// callback must be cheap and non-blocking). A nil fn removes the
// observer. Must be called from the rank's goroutine.
func (c *Comm) SetObserver(fn func(Event)) { c.observer = fn }

// Comm is one rank's communicator handle. Methods must only be called
// from the rank's own goroutine.
type Comm struct {
	rank, size int
	net        *network

	clock    time.Duration // virtual time of this rank
	lastReal time.Time     // wall time when the token was (re)acquired

	commTime  time.Duration
	bytesSent int64
	bytesRecv int64
	msgsSent  int64
	collSeq   int
	done      bool

	observer func(Event)
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Elapsed returns the rank's current virtual time (compute plus
// communication, as a physical run of the same code would measure).
// Called from the rank goroutine it is live; after Run it is final.
func (c *Comm) Elapsed() time.Duration {
	if !c.done {
		c.tick()
	}
	return c.clock
}

// CommTime returns the portion of virtual time spent in communication.
func (c *Comm) CommTime() time.Duration { return c.commTime }

// BytesSent returns the total payload bytes this rank has sent.
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// BytesRecv returns the total payload bytes this rank has received.
func (c *Comm) BytesRecv() int64 { return c.bytesRecv }

// Messages returns the number of point-to-point messages sent.
func (c *Comm) Messages() int64 { return c.msgsSent }

// AdvanceClock adds d of modeled compute time to the rank's virtual
// clock (used by tests; real compute is metered automatically).
func (c *Comm) AdvanceClock(d time.Duration) { c.clock += d }

// tick folds wall time elapsed while holding the token into the virtual
// clock as compute time.
func (c *Comm) tick() {
	now := time.Now()
	c.clock += now.Sub(c.lastReal)
	c.lastReal = now
}

// Run executes fn on size ranks and returns the per-rank Comms after all
// ranks finish (for inspecting clocks and counters). It panics if any
// rank panics.
func Run(size int, machine Machine, fn func(*Comm)) []*Comm { //lint:allow ctxfirst simulated ranks run to completion by design; the wire transport (internal/cluster) owns cancellation
	if size < 1 {
		panic("mpi: size must be >= 1")
	}
	net := newNetwork(size, machine)
	comms := make([]*Comm, size)
	errs := make(chan any, size)
	for r := 0; r < size; r++ {
		comms[r] = &Comm{rank: r, size: size, net: net}
	}
	for r := 0; r < size; r++ {
		go func(c *Comm) {
			defer func() {
				p := recover()
				// Finalize the rank's clock before signaling errs: the
				// send is what releases Run back to the caller, so every
				// write to c must happen-before it or Elapsed() races.
				c.tick()
				c.done = true
				c.net.releaseToken()
				if p != nil {
					errs <- fmt.Errorf("mpi: rank %d panicked: %v", c.rank, p)
				} else {
					errs <- nil
				}
			}()
			c.net.acquireToken()
			c.lastReal = time.Now()
			fn(c)
		}(comms[r])
	}
	var failure any
	for r := 0; r < size; r++ {
		if e := <-errs; e != nil && failure == nil {
			failure = e
		}
	}
	if failure != nil {
		panic(failure)
	}
	return comms
}

// MaxElapsed returns max over ranks of virtual time — the simulated
// wall-clock of the parallel run.
func MaxElapsed(comms []*Comm) time.Duration {
	var m time.Duration
	for _, c := range comms {
		if c.clock > m {
			m = c.clock
		}
	}
	return m
}
