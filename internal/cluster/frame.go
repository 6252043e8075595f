// Package cluster makes the paper's distributed algorithm real: a TCP
// implementation of mpi.Transport carrying the parallel KIFMM's
// point-to-point ghost exchanges and collectives between processes,
// plus the node lifecycle around it — workers dial a coordinator, join
// with a hello/capabilities handshake, heartbeat, and drain gracefully;
// the coordinator partitions request geometry into one rank per worker
// (parfmm's patch partition, every point its own patch), and each worker
// runs its rank's internal/parfmm evaluation over its whole lane pool,
// exchanging ghosts over the wire.
//
// Topology: control traffic (handshake, heartbeats, job dispatch and
// abort, drain, results) flows on each worker's single connection to the
// coordinator, and that is all the coordinator carries. Rank traffic —
// the Algorithm-1 gather/scatter payloads, and the collectives the ranks
// reduce among themselves at rank 0 in place of the paper's
// MPI_Allreduce — flows over a lazily-dialed worker↔worker mesh. Every
// node has its own listener.
//
// Wire format: length-prefixed little-endian binary frames following
// the shared internal/wire conventions. Bulk float64/int32 arrays
// (coordinates, densities, equivalent densities, potentials) are raw
// little-endian words — no JSON on the hot path. Small control
// payloads (handshake, job headers, timelines) are JSON inside their
// frame.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/wire"
)

// frameType discriminates wire frames.
type frameType uint8

const (
	// Worker -> coordinator control frames.
	fHello frameType = iota + 1
	fHeartbeat
	fDrain
	fJobResult
	fJobError
	// Coordinator -> worker control frames.
	fHelloAck
	fJobStart
	fJobAbort
	// Worker -> worker mesh frames.
	fP2P
)

// maxFrameBytes bounds a single frame: the shared wire limit (1 GiB —
// tens of millions of points of coordinate data; anything beyond is a
// protocol error, not a workload).
const maxFrameBytes = wire.MaxFrameBytes

// frame header: u32 little-endian length of (type byte + payload).
const frameHeaderBytes = 4

// frameStep is the largest frame readFrame allocates in one piece.
const frameStep = 1 << 20

// framedConn is a net.Conn carrying length-prefixed frames; writes are
// serialized by an internal mutex so any goroutine may send.
type framedConn struct {
	c net.Conn
	r *bufio.Reader

	wmu sync.Mutex
}

func newFramedConn(c net.Conn) *framedConn {
	return &framedConn{c: c, r: bufio.NewReaderSize(c, 1<<16)}
}

// writeFrame sends one frame (a single Write call after assembly, so
// frames never interleave even without the mutex — the mutex guards the
// Write ordering).
func (fc *framedConn) writeFrame(t frameType, payload []byte) error {
	if len(payload)+1 > maxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes exceeds the %d limit", len(payload)+1, maxFrameBytes)
	}
	buf := make([]byte, frameHeaderBytes+1+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[frameHeaderBytes] = byte(t)
	copy(buf[frameHeaderBytes+1:], payload)
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	_, err := fc.c.Write(buf)
	return err
}

// readFrame blocks for the next frame. Must be called from a single
// reader goroutine per connection.
func (fc *framedConn) readFrame() (frameType, []byte, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("cluster: frame length %d out of range", n)
	}
	// The buffer grows as the bytes arrive: a peer commits this side to at
	// most frameStep beyond what it actually sent, not to the gigabyte its
	// length word may claim.
	var body []byte
	for len(body) < n {
		step := min(n-len(body), max(len(body), frameStep))
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(fc.r, body[len(body)-step:]); err != nil {
			return 0, nil, err
		}
	}
	return frameType(body[0]), body[1:], nil
}

func (fc *framedConn) Close() error { return fc.c.Close() }

// Frame payloads are assembled with wire.Writer and decoded with
// wire.Reader — the shared little-endian conventions extracted from
// this file into internal/wire (the HTTP API's
// application/x-kifmm-frame bodies speak the same format).

// errMalformed is the decoder's uniform parse failure; it wraps
// wire.ErrMalformed so errors.Is works across the layers.
func errMalformed() error {
	return fmt.Errorf("cluster: malformed frame payload: %w", wire.ErrMalformed)
}

// frameErr maps a decoder's latched state onto the cluster error.
func frameErr(r *wire.Reader) error {
	if r.Err() != nil {
		return errMalformed()
	}
	return nil
}
