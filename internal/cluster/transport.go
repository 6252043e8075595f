package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
)

// wireFailure is the panic payload for unrecoverable transport errors —
// a broken peer connection, a coordinator abort, a lost worker. The
// Transport contract says these panic; the worker recovers at the rank
// boundary and reports the job failed.
type wireFailure struct{ err error }

func (f wireFailure) Error() string { return f.err.Error() }

// mailKey addresses a point-to-point mailbox: messages from src to dst
// under one tag.
type mailKey struct{ dst, src, tag int }

// wireMsg is one delivered point-to-point payload with the sender's and
// receiver's clock offsets (ns since their job start) for the ledger.
type wireMsg struct {
	data    []float64
	sentNS  int64
	availNS int64
}

// collKey addresses one rank's pending collective response.
type collKey struct {
	rank int
	seq  uint64
}

// workerJob is the per-job rendezvous state on a worker: the mailboxes
// the worker's rank receives from, the collective responses it waits for,
// and the abort latch that poisons every blocked operation when the
// coordinator cancels the job or a peer is lost. One mutex + condition
// serializes all of it; the rank blocks on the condition.
type workerJob struct {
	id    uint64
	hdr   *jobHeader
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	mail     map[mailKey][]wireMsg
	colls    map[collKey]*collRespMsg
	abortErr error
	// cancel stops the compute of the worker's rank (set by runJob).
	cancel context.CancelFunc
}

func newWorkerJob(id uint64) *workerJob {
	j := &workerJob{
		id:    id,
		mail:  make(map[mailKey][]wireMsg),
		colls: make(map[collKey]*collRespMsg),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// elapsed is this worker's clock offset for the job (ns since the job
// started locally). Cross-worker offsets share an origin only up to
// dispatch skew — fine for observability, not for ordering proofs.
func (j *workerJob) elapsed() time.Duration { return time.Since(j.start) }

func (j *workerJob) deliverP2P(m *p2pMsg) {
	j.mu.Lock()
	key := mailKey{dst: m.Dst, src: m.Src, tag: m.Tag}
	j.mail[key] = append(j.mail[key], wireMsg{data: m.Data, sentNS: m.SentNS, availNS: int64(j.elapsed())})
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (j *workerJob) deliverCollResp(m *collRespMsg) {
	j.mu.Lock()
	j.colls[collKey{rank: m.Rank, seq: m.Seq}] = m
	j.cond.Broadcast()
	j.mu.Unlock()
}

// abort poisons the job: a blocked Recv/collective wakes and panics with
// err, unwinding the rank, and a rank in the middle of a pass sees its
// context cancelled. It reports whether err is the one that aborted the
// job (false when the job was aborted already).
func (j *workerJob) abort(err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.abortErr != nil {
		return false
	}
	j.abortErr = err
	if j.cancel != nil {
		j.cancel()
	}
	j.cond.Broadcast()
	return true
}

// wireTransport is one rank's mpi.Transport over TCP: point-to-point
// payloads ride the worker mesh (a rank never sends to itself),
// collectives rendezvous at the coordinator. It reproduces the in-process
// transport's ledger events — same kinds, same dependency attribution —
// so obs.Timeline, critical-path extraction and the Chrome trace work
// unchanged on a real cluster.
type wireTransport struct {
	w    *Worker
	j    *workerJob
	rank int

	observer func(mpi.Event)
	collSeq  uint64

	commTime  time.Duration
	bytesSent int64
	bytesRecv int64
	msgs      int64
}

var _ mpi.Transport = (*wireTransport)(nil)

func (t *wireTransport) Rank() int { return t.rank }
func (t *wireTransport) Size() int { return t.j.hdr.Size }

func (t *wireTransport) Elapsed() time.Duration  { return t.j.elapsed() }
func (t *wireTransport) CommTime() time.Duration { return t.commTime }
func (t *wireTransport) BytesSent() int64        { return t.bytesSent }
func (t *wireTransport) BytesRecv() int64        { return t.bytesRecv }
func (t *wireTransport) Messages() int64         { return t.msgs }

func (t *wireTransport) SetObserver(fn func(mpi.Event)) { t.observer = fn }

// SendFloat64s is eager: it writes the frame to the peer's mesh
// connection and returns without waiting for the receiver.
func (t *wireTransport) SendFloat64s(dst, tag int, data []float64) {
	start := t.j.elapsed()
	bytes := 8 * len(data)
	m := &p2pMsg{Job: t.j.id, Src: t.rank, Dst: dst, Tag: tag, SentNS: int64(start), Data: data}
	pc, err := t.w.peerConn(t.j.hdr.Peers[dst])
	if err == nil {
		err = pc.writeFrame(fP2P, encodeP2P(m))
	}
	if err != nil {
		panic(wireFailure{fmt.Errorf("cluster: rank %d send to rank %d: %w", t.rank, dst, err)})
	}
	end := t.j.elapsed()
	t.commTime += end - start
	t.bytesSent += int64(bytes)
	t.msgs++
	if t.observer != nil {
		t.observer(mpi.Event{
			Kind: mpi.EventSend, Rank: t.rank, Peer: dst, Tag: tag, Bytes: bytes,
			Start: start, End: end, Sent: end, Avail: end, DepRank: -1,
		})
	}
}

// RecvFloat64s blocks until a payload from src under tag is delivered,
// or the job is aborted (which panics to unwind the rank).
func (t *wireTransport) RecvFloat64s(src, tag int) []float64 {
	start := t.j.elapsed()
	key := mailKey{dst: t.rank, src: src, tag: tag}
	j := t.j
	j.mu.Lock()
	waited := false
	for len(j.mail[key]) == 0 {
		if j.abortErr != nil {
			err := j.abortErr
			j.mu.Unlock()
			panic(wireFailure{err})
		}
		waited = true
		j.cond.Wait()
	}
	q := j.mail[key]
	msg := q[0]
	if len(q) == 1 {
		delete(j.mail, key)
	} else {
		j.mail[key] = q[1:]
	}
	j.mu.Unlock()

	end := t.j.elapsed()
	bytes := 8 * len(msg.data)
	t.commTime += end - start
	t.bytesRecv += int64(bytes)
	t.msgs++
	if t.observer != nil {
		ev := mpi.Event{
			Kind: mpi.EventRecv, Rank: t.rank, Peer: src, Tag: tag, Bytes: bytes,
			Start: start, End: end,
			Sent: time.Duration(msg.sentNS), Avail: time.Duration(msg.availNS),
			DepRank: -1,
		}
		if waited {
			ev.Wait = end - start
			ev.DepRank = src
			ev.DepTime = time.Duration(msg.sentNS)
		}
		t.observer(ev)
	}
	return msg.data
}

// runCollective ships this rank's contribution to the coordinator and
// blocks for the combined response. Sequence numbers advance identically
// on every rank (the algorithm is deterministic), which is what matches
// contributions of the same collective across ranks.
func (t *wireTransport) runCollective(kind byte, op mpi.ReduceOp, i64 []int64, f64 []float64) *collRespMsg {
	seq := t.collSeq
	t.collSeq++
	start := t.j.elapsed()
	msg := &collMsg{
		Job: t.j.id, Rank: t.rank, Kind: kind, Op: byte(op),
		Seq: seq, EntryNS: int64(start), I64: i64, F64: f64,
	}
	if err := t.w.ctrl.writeFrame(fColl, encodeColl(msg)); err != nil {
		panic(wireFailure{fmt.Errorf("cluster: rank %d collective %d: %w", t.rank, seq, err)})
	}

	key := collKey{rank: t.rank, seq: seq}
	j := t.j
	j.mu.Lock()
	for j.colls[key] == nil {
		if j.abortErr != nil {
			err := j.abortErr
			j.mu.Unlock()
			panic(wireFailure{err})
		}
		j.cond.Wait()
	}
	resp := j.colls[key]
	delete(j.colls, key)
	j.mu.Unlock()

	end := t.j.elapsed()
	bytes := 8 * (len(i64) + len(f64))
	if kind == collBarrier {
		bytes = 8
	}
	t.commTime += end - start
	t.msgs++
	if t.observer != nil {
		t.observer(mpi.Event{
			Kind: mpi.EventCollective, Rank: t.rank, Peer: -1, Tag: int(seq), Bytes: bytes,
			Start: start, End: end, Wait: end - start,
			DepRank: resp.LastRank, DepTime: time.Duration(resp.LastEntryNS),
		})
	}
	return resp
}

func (t *wireTransport) AllreduceInt64(op mpi.ReduceOp, in []int64) []int64 {
	return t.runCollective(collInt64, op, in, nil).I64
}

func (t *wireTransport) AllreduceFloat64(op mpi.ReduceOp, in []float64) []float64 {
	return t.runCollective(collFloat64, op, nil, in).F64
}

func (t *wireTransport) Barrier() {
	t.runCollective(collBarrier, 0, nil, nil)
}
