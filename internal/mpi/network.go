package mpi

import (
	"fmt"
	"sync"
	"time"
)

// network is the shared transport: a token serializing execution,
// per-rank mailboxes, and collective rendezvous state.
type network struct {
	size    int
	machine Machine

	token chan struct{}

	mu      sync.Mutex
	boxes   [][]message     // boxes[dst]: pending messages
	wake    []chan struct{} // per-rank wakeup, capacity 1
	colls   map[int]*collective
	collNum int // allocated collective sequence counter safety check
}

type collective struct {
	arrived int
	entries []time.Duration
	inputs  []any
	result  any
	exit    time.Duration
	bytes   int // modeled per-rank data volume
	last    int // rank with the latest entry (the synchronization dependency)
	done    chan struct{}
}

func newNetwork(size int, m Machine) *network {
	n := &network{
		size:    size,
		machine: m,
		token:   make(chan struct{}, 1),
		boxes:   make([][]message, size),
		wake:    make([]chan struct{}, size),
		colls:   make(map[int]*collective),
	}
	for i := range n.wake {
		n.wake[i] = make(chan struct{}, 1)
	}
	n.token <- struct{}{}
	return n
}

func (n *network) acquireToken() { <-n.token }
func (n *network) releaseToken() { n.token <- struct{}{} }

// SendFloat64s delivers a copy of data to dst under tag. It never blocks
// (eager buffering), which keeps the paper's send-before-receive
// gather/scatter pattern deadlock-free.
func (c *Comm) SendFloat64s(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.size {
		panic("mpi: Send destination out of range")
	}
	data, bytes := append([]float64(nil), data...), 8*len(data)
	c.tick()
	start := c.clock
	c.clock += c.net.machine.SendOverhead + c.net.machine.transferTime(bytes)
	avail := c.clock + c.net.machine.Latency
	c.commTime += c.clock - start
	c.bytesSent += int64(bytes)
	c.msgsSent++
	c.lastReal = time.Now()
	if c.observer != nil {
		c.observer(Event{
			Kind: EventSend, Rank: c.rank, Peer: dst, Tag: tag, Bytes: bytes,
			Start: start, End: c.clock, Sent: c.clock, Avail: avail, DepRank: -1,
		})
	}

	n := c.net
	n.mu.Lock()
	n.boxes[dst] = append(n.boxes[dst], message{src: c.rank, tag: tag, data: data, bytes: bytes, sent: c.clock, avail: avail})
	n.mu.Unlock()
	select {
	case n.wake[dst] <- struct{}{}:
	default:
	}
}

// RecvFloat64s blocks until a message from src with the given tag
// arrives and returns its payload. Messages from one (src, tag) pair are
// delivered in send order.
func (c *Comm) RecvFloat64s(src, tag int) []float64 {
	if src < 0 || src >= c.size {
		panic("mpi: Recv source out of range")
	}
	c.tick()
	start := c.clock
	n := c.net
	for {
		n.mu.Lock()
		box := n.boxes[c.rank]
		for i := range box {
			if box[i].src == src && box[i].tag == tag {
				msg := box[i]
				n.boxes[c.rank] = append(box[:i:i], box[i+1:]...)
				n.mu.Unlock()
				var wait time.Duration
				if msg.avail > c.clock {
					wait = msg.avail - c.clock
					c.clock = msg.avail
				}
				c.clock += n.machine.RecvOverhead
				c.commTime += c.clock - start
				c.bytesRecv += int64(msg.bytes)
				c.lastReal = time.Now()
				if c.observer != nil {
					ev := Event{
						Kind: EventRecv, Rank: c.rank, Peer: src, Tag: tag, Bytes: msg.bytes,
						Start: start, End: c.clock, Sent: msg.sent, Avail: msg.avail,
						Wait: wait, DepRank: -1,
					}
					if wait > 0 {
						ev.DepRank, ev.DepTime = msg.src, msg.sent
					}
					c.observer(ev)
				}
				return msg.data
			}
		}
		n.mu.Unlock()
		// Nothing yet: yield the token and sleep until a sender pokes us.
		n.releaseToken()
		<-n.wake[c.rank]
		n.acquireToken()
		c.lastReal = time.Now()
	}
}

// runCollective is the rendezvous engine: every rank deposits its input
// and entry clock; the last arrival combines the inputs, computes the
// synchronized exit time, and wakes everyone.
//
// combine receives the inputs indexed by rank and returns (result,
// perRankBytes) where perRankBytes models the data volume each rank
// exchanges; the exit time is max(entry) plus a tree-structured cost
// 2*ceil(log2 P)*(latency + transfer(perRankBytes)).
func (c *Comm) runCollective(inputs any, combine func(all []any) (any, int)) any {
	c.tick()
	start := c.clock
	n := c.net
	seq := c.collSeq
	c.collSeq++

	n.mu.Lock()
	coll, ok := n.colls[seq]
	if !ok {
		coll = &collective{
			entries: make([]time.Duration, n.size),
			inputs:  make([]any, n.size),
			done:    make(chan struct{}),
		}
		n.colls[seq] = coll
	}
	coll.entries[c.rank] = c.clock
	coll.inputs[c.rank] = inputs
	coll.arrived++
	last := coll.arrived == n.size
	if last {
		result, bytes := combine(coll.inputs)
		coll.result = result
		coll.bytes = bytes
		exit := time.Duration(0)
		for r, e := range coll.entries {
			if e > exit {
				exit = e
				coll.last = r
			}
		}
		steps := ceilLog2(n.size)
		coll.exit = exit + time.Duration(2*steps)*(n.machine.Latency+n.machine.transferTime(bytes))
		delete(n.colls, seq)
		close(coll.done)
	}
	n.mu.Unlock()
	if !last {
		n.releaseToken()
		<-coll.done
		n.acquireToken()
	}
	c.clock = coll.exit
	c.commTime += c.clock - start
	c.lastReal = time.Now()
	if c.observer != nil {
		c.observer(Event{
			Kind: EventCollective, Rank: c.rank, Peer: -1, Tag: seq, Bytes: coll.bytes,
			Start: start, End: c.clock, Wait: c.clock - start,
			DepRank: coll.last, DepTime: coll.entries[coll.last],
		})
	}
	return coll.result
}

func ceilLog2(n int) int {
	s := 0
	for v := 1; v < n; v <<= 1 {
		s++
	}
	return s
}

// Barrier synchronizes all ranks (MPI_Barrier).
func (c *Comm) Barrier() {
	c.runCollective(nil, func([]any) (any, int) { return nil, 8 })
}

// ReduceOp selects the elementwise reduction of Allreduce.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Reduce combines one vector per rank elementwise under op: the
// arithmetic of MPI_Allreduce, shared by the simulated collective below
// and the cluster coordinator's broker. Ranks are folded in rank order
// into a fresh slice, so a float64 sum is reproducible. Every vector must
// be as long as rank 0's; a ragged input panics.
func Reduce[T int64 | float64](op ReduceOp, all [][]T) []T {
	out := append([]T(nil), all[0]...)
	for r, in := range all[1:] {
		if len(in) != len(out) {
			panic(fmt.Sprintf("mpi: Reduce: rank %d has %d elements, rank 0 has %d", r+1, len(in), len(out)))
		}
		for i, v := range in {
			switch op {
			case OpSum:
				out[i] += v
			case OpMax:
				if v > out[i] {
					out[i] = v
				}
			case OpMin:
				if v < out[i] {
					out[i] = v
				}
			}
		}
	}
	return out
}

// allreduce is MPI_Allreduce over either element type: every rank
// receives its own copy of Reduce over all ranks' vectors.
func allreduce[T int64 | float64](c *Comm, op ReduceOp, in []T) []T {
	res := c.runCollective(append([]T(nil), in...), func(all []any) (any, int) {
		vecs := make([][]T, len(all))
		for r, a := range all {
			vecs[r] = a.([]T)
		}
		out := Reduce(op, vecs)
		return out, 8 * len(out)
	})
	return append([]T(nil), res.([]T)...)
}

// AllreduceInt64 performs an elementwise MPI_Allreduce over int64 slices
// and returns the reduced vector (all ranks receive the same result).
func (c *Comm) AllreduceInt64(op ReduceOp, in []int64) []int64 { return allreduce(c, op, in) }

// AllreduceFloat64 performs an elementwise MPI_Allreduce over float64
// slices.
func (c *Comm) AllreduceFloat64(op ReduceOp, in []float64) []float64 { return allreduce(c, op, in) }
