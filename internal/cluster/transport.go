package cluster

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/mpi"
)

// wireFailure is the panic payload for unrecoverable transport errors —
// a broken peer connection, a coordinator abort, a lost worker. The
// Transport contract says these panic; the worker recovers at the rank
// boundary and reports the job failed.
type wireFailure struct{ err error }

func (f wireFailure) Error() string { return f.err.Error() }

// mailKey addresses a mesh mailbox: messages from src to dst under one
// tag.
type mailKey struct{ dst, src, tag int }

// wireMsg is one delivered mesh payload with the sender's clock offset
// (ns since its job start) for the ledger.
type wireMsg struct {
	data   []float64
	sentNS int64
}

// workerJob is the per-job rendezvous state on a worker: the mailboxes
// the worker's rank receives from, and the abort latch that poisons every
// blocked receive when the coordinator cancels the job or a peer is lost.
// One mutex + condition serializes all of it; the rank blocks on the
// condition.
type workerJob struct {
	id    uint64
	hdr   *jobHeader
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	mail     map[mailKey][]wireMsg
	abortErr error
	// cancel stops the compute of the worker's rank (set by runJob).
	cancel context.CancelFunc
}

func newWorkerJob(id uint64) *workerJob {
	j := &workerJob{id: id, mail: make(map[mailKey][]wireMsg)}
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
	j.mail[key] = append(j.mail[key], wireMsg{data: m.Data, sentNS: m.SentNS})
	j.cond.Broadcast()
	j.mu.Unlock()
}

// abort poisons the job: a blocked receive wakes and panics with err,
// unwinding the rank, and a rank in the middle of a pass sees its
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

// wireTransport is one rank's mpi.Transport over TCP: every payload
// rides the worker mesh (a rank never sends to itself), point-to-point
// messages under their tags ≥ 0 and collectives under reserved negative
// tags, rooted at rank 0. It reproduces the in-process transport's ledger
// events — same kinds, same dependency attribution — and records them
// through the same mpi.Meter, so the counters, obs.Timeline, critical-path
// extraction and the Chrome trace work unchanged on a real cluster.
type wireTransport struct {
	mpi.Meter
	w    *Worker
	j    *workerJob
	rank int

	collSeq int
}

var _ mpi.Transport = (*wireTransport)(nil)

func (t *wireTransport) Rank() int { return t.rank }
func (t *wireTransport) Size() int { return t.j.hdr.Size }

func (t *wireTransport) Elapsed() time.Duration { return t.j.elapsed() }

// send writes one payload to dst's mesh connection, stamped with sent on
// this rank's clock. A peer it cannot reach is a lost worker: the
// typed error panics, unwinding the rank.
func (t *wireTransport) send(dst, tag int, data []float64, sent time.Duration) {
	m := &p2pMsg{Job: t.j.id, Src: t.rank, Dst: dst, Tag: tag, SentNS: int64(sent), Data: data}
	pc, err := t.w.peerConn(t.j.hdr.Peers[dst])
	if err == nil {
		err = pc.writeFrame(fP2P, encodeP2P(m))
	}
	if err != nil {
		panic(wireFailure{errs.Newf(errs.CodeWorkerLost, "kifmm: rank %d send to rank %d: %w", t.rank, dst, err)})
	}
}

// recv blocks until a payload from src under tag is delivered, and
// reports whether it had to wait. The job's abort panics, unwinding the
// rank.
func (t *wireTransport) recv(src, tag int) (msg wireMsg, waited bool) {
	key := mailKey{dst: t.rank, src: src, tag: tag}
	j := t.j
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.mail[key]) == 0 {
		if j.abortErr != nil {
			panic(wireFailure{j.abortErr})
		}
		waited = true
		j.cond.Wait()
	}
	q := j.mail[key]
	msg = q[0]
	if len(q) == 1 {
		delete(j.mail, key)
	} else {
		j.mail[key] = q[1:]
	}
	return msg, waited
}

// SendFloat64s is eager: it writes the frame to the peer's mesh
// connection and returns without waiting for the receiver.
func (t *wireTransport) SendFloat64s(dst, tag int, data []float64) {
	start := t.j.elapsed()
	t.send(dst, tag, data, start)
	end := t.j.elapsed()
	t.Record(mpi.Event{
		Kind: mpi.EventSend, Rank: t.rank, Peer: dst, Tag: tag, Bytes: 8 * len(data),
		Start: start, End: end, Sent: end, DepRank: -1,
	})
}

// RecvFloat64s blocks until a payload from src under tag is delivered,
// or the job is aborted (which panics to unwind the rank).
func (t *wireTransport) RecvFloat64s(src, tag int) []float64 {
	start := t.j.elapsed()
	msg, waited := t.recv(src, tag)
	end := t.j.elapsed()
	ev := mpi.Event{
		Kind: mpi.EventRecv, Rank: t.rank, Peer: src, Tag: tag, Bytes: 8 * len(msg.data),
		Start: start, End: end, Sent: time.Duration(msg.sentNS), DepRank: -1,
	}
	if waited {
		ev.Wait = end - start
		ev.DepRank = src
		ev.DepTime = time.Duration(msg.sentNS)
	}
	t.Record(ev)
	return msg.data
}

// allreduce is one collective over the mesh, under the tag -1 - seq (the
// point-to-point tags are ≥ 0). Every other rank sends rank 0 its vector,
// stamped with its entry time; rank 0 checks the lengths, folds the
// vectors in rank order with fold and answers each rank with the result
// followed by the last rank to enter and that rank's entry time, both
// bit-cast. Sequence numbers advance identically on every rank (the
// algorithm is deterministic), which is what matches contributions of the
// same collective. The mesh frames are not sends or receives of the
// ledger: the rank records one collective event.
func (t *wireTransport) allreduce(in []float64, fold func(all [][]float64) []float64) []float64 {
	seq := t.collSeq
	t.collSeq++
	tag := -1 - seq
	start := t.j.elapsed()
	var out []float64
	last, lastEntry := 0, start
	if t.rank != 0 {
		t.send(0, tag, in, start)
		resp, _ := t.recv(0, tag)
		n := len(resp.data) - 2
		out = resp.data[:n]
		last = int(math.Float64bits(resp.data[n]))
		lastEntry = time.Duration(math.Float64bits(resp.data[n+1]))
	} else {
		all := make([][]float64, t.Size())
		all[0] = in
		for r := 1; r < len(all); r++ {
			m, _ := t.recv(r, tag)
			if len(m.data) != len(in) {
				// What the ranks sent came off a socket: mpi.Reduce wants it square.
				panic(wireFailure{errs.Newf(errs.CodeInternal, "kifmm: collective %d: rank %d disagrees with rank 0 on the vector length", seq, r)})
			}
			all[r] = m.data
			if e := time.Duration(m.sentNS); e > lastEntry {
				last, lastEntry = r, e
			}
		}
		out = fold(all)
		resp := append(out[:len(out):len(out)], math.Float64frombits(uint64(last)), math.Float64frombits(uint64(lastEntry)))
		for r := 1; r < len(all); r++ {
			t.send(r, tag, resp, t.j.elapsed())
		}
	}
	end := t.j.elapsed()
	t.Record(mpi.Event{
		Kind: mpi.EventCollective, Rank: t.rank, Peer: -1, Tag: seq, Bytes: 8 * len(in),
		Start: start, End: end, Wait: end - start,
		DepRank: last, DepTime: lastEntry,
	})
	return out
}

func (t *wireTransport) AllreduceFloat64(op mpi.ReduceOp, in []float64) []float64 {
	return t.allreduce(in, func(all [][]float64) []float64 { return mpi.Reduce(op, all) })
}

// AllreduceInt64 carries the int64s in the mesh's float64 words bit-cast,
// never converted.
func (t *wireTransport) AllreduceInt64(op mpi.ReduceOp, in []int64) []int64 {
	out := t.allreduce(int64Words(in), func(all [][]float64) []float64 {
		vecs := make([][]int64, len(all))
		for r, a := range all {
			vecs[r] = wordsInt64(a)
		}
		return int64Words(mpi.Reduce(op, vecs))
	})
	return wordsInt64(out)
}

func int64Words(v []int64) []float64 {
	w := make([]float64, len(v))
	for i, x := range v {
		w[i] = math.Float64frombits(uint64(x))
	}
	return w
}

func wordsInt64(w []float64) []int64 {
	v := make([]int64, len(w))
	for i, x := range w {
		v[i] = int64(math.Float64bits(x))
	}
	return v
}
