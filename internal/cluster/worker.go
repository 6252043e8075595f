package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/parfmm"
)

// WorkerConfig configures a cluster worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's control address (required).
	Coordinator string
	// Listen is the worker's mesh listener address for rank-to-rank
	// traffic (default "127.0.0.1:0" — loopback with an ephemeral port;
	// set an externally reachable address for a real multi-host run).
	Listen string
	// Lanes is the width of the worker's elastic pool, which its one
	// rank of every job fans the engine's passes out over. It does not
	// change how many ranks a job has. Default: GOMAXPROCS.
	Lanes int
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Worker is a cluster worker node: it dials the coordinator, joins with
// a hello handshake, heartbeats, accepts mesh connections from peer
// workers, and runs its one rank of each job via parfmm.EvaluateRank over
// the wire transport.
type Worker struct {
	id   int64
	ctrl *framedConn
	ln   net.Listener
	pool *exec.Elastic
	log  *slog.Logger
	hb   time.Duration

	mu      sync.Mutex
	jobs    map[uint64]*workerJob
	done    []uint64 // ring of recently finished job ids (stale frames drop)
	peers   map[string]*framedConn
	inbound []*framedConn // accepted mesh connections
	closed  bool

	jobWG sync.WaitGroup // in-flight job runners
	wg    sync.WaitGroup // loops and mesh readers

	// runCtx bounds the worker's job admissions; it is derived from the
	// StartWorker ctx and cancelled at teardown, so queued pool waits
	// unblock when either the caller or the worker itself shuts down.
	runCtx    context.Context
	cancelRun context.CancelFunc
}

// StartWorker connects to a coordinator and joins the cluster. ctx
// bounds the worker's lifetime: cancelling it kills the worker (the
// immediate, non-draining shutdown). The returned worker otherwise
// serves jobs until Close (graceful drain) or Kill.
func StartWorker(ctx context.Context, cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errs.New(errs.CodeInvalidInput, "cluster: WorkerConfig.Coordinator is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.GOMAXPROCS(0)
	}
	w := &Worker{
		pool:  exec.NewElastic(cfg.Lanes),
		log:   cfg.Logger,
		jobs:  make(map[uint64]*workerJob),
		peers: make(map[string]*framedConn),
	}
	if w.log == nil {
		w.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, errs.Newf(errs.CodeInternal, "cluster: worker listen: %w", err)
	}
	w.ln = ln

	conn, err := net.Dial("tcp", cfg.Coordinator)
	if err != nil {
		ln.Close()
		return nil, errs.Newf(errs.CodeInternal, "cluster: dial coordinator %s: %w", cfg.Coordinator, err)
	}
	w.ctrl = newFramedConn(conn)

	hello, err := json.Marshal(helloMsg{PeerAddr: ln.Addr().String()})
	if err == nil {
		err = w.ctrl.writeFrame(fHello, hello)
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	}
	var ack helloAck
	if err == nil {
		var ft frameType
		var payload []byte
		ft, payload, err = w.ctrl.readFrame()
		if err == nil && ft != fHelloAck {
			err = fmt.Errorf("cluster: expected hello ack, got frame type %d", ft)
		}
		if err == nil {
			err = json.Unmarshal(payload, &ack)
		}
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		ln.Close()
		return nil, errs.Typed(fmt.Errorf("cluster: handshake with %s: %w", cfg.Coordinator, err), errs.CodeInternal)
	}
	w.id = ack.WorkerID
	w.hb = time.Duration(ack.HeartbeatNS)
	if w.hb <= 0 {
		w.hb = 2 * time.Second
	}
	w.log.Info("cluster worker joined", "worker_id", w.id, "coordinator", cfg.Coordinator, "mesh_addr", ln.Addr().String(), "lanes", cfg.Lanes)

	w.runCtx, w.cancelRun = context.WithCancel(ctx)
	context.AfterFunc(ctx, w.Kill)
	w.wg.Add(3)
	go w.ctrlLoop()
	go w.heartbeatLoop()
	go w.acceptLoop()
	return w, nil
}

// ID is the coordinator-assigned worker id.
func (w *Worker) ID() int64 { return w.id }

// Addr is the worker's mesh listener address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// ctrlLoop reads coordinator frames: job dispatch and aborts. A read
// error means the coordinator is gone — every in-flight job aborts.
func (w *Worker) ctrlLoop() {
	defer w.wg.Done()
	for {
		ft, payload, err := w.ctrl.readFrame()
		if err != nil {
			w.abortAll(errs.Newf(errs.CodeWorkerLost, "kifmm: coordinator connection lost: %v", err))
			return
		}
		switch ft {
		case fJobStart:
			hdr, in, err := decodeJobStart(payload)
			if err != nil {
				w.log.Warn("cluster worker: bad job start", "err", err)
				continue
			}
			w.startJob(hdr, in)
		case fJobAbort:
			job, code, msg, err := decodeJobStatus(payload)
			if err != nil {
				continue
			}
			// An abort can overtake its job's start (a worker lost
			// mid-scatter): jobFor latches it on a placeholder, and the
			// start that follows finds its job aborted.
			if j := w.jobFor(job); j != nil {
				j.abort(errs.New(errs.Code(code), msg))
			}
		}
	}
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.hb)
	defer t.Stop()
	for range t.C {
		if w.isClosed() {
			return
		}
		if err := w.ctrl.writeFrame(fHeartbeat, nil); err != nil {
			return
		}
	}
}

// acceptLoop admits mesh connections from peer workers; each gets a
// reader goroutine delivering fP2P frames into job mailboxes.
func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		fc := newFramedConn(c)
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			fc.Close()
			return
		}
		w.inbound = append(w.inbound, fc)
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer fc.Close()
			for {
				ft, payload, err := fc.readFrame()
				if err != nil {
					return
				}
				if ft != fP2P {
					continue
				}
				m, err := decodeP2P(payload)
				if err != nil {
					continue
				}
				if j := w.jobFor(m.Job); j != nil {
					j.deliverP2P(m)
				}
			}
		}()
	}
}

// jobFor returns the job, creating a placeholder when a peer's frame or
// the job's abort outruns the coordinator's job-start frame. Frames for
// recently finished jobs are dropped.
func (w *Worker) jobFor(id uint64) *workerJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	if j, ok := w.jobs[id]; ok {
		return j
	}
	if w.closed {
		return nil
	}
	for _, d := range w.done {
		if d == id {
			return nil
		}
	}
	j := newWorkerJob(id)
	j.start = time.Now()
	w.jobs[id] = j
	return j
}

// finishJob retires a job id into the stale-frame ring.
func (w *Worker) finishJob(id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.jobs, id)
	w.done = append(w.done, id)
	if len(w.done) > 64 {
		w.done = w.done[len(w.done)-64:]
	}
}

func (w *Worker) abortAll(err error) {
	w.mu.Lock()
	jobs := make([]*workerJob, 0, len(w.jobs))
	for _, j := range w.jobs {
		jobs = append(jobs, j)
	}
	w.mu.Unlock()
	for _, j := range jobs {
		j.abort(err)
	}
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// peerConn returns the mesh connection to addr, dialing it lazily. Mesh
// connections are write-only on the dialing side; the accepting side
// reads.
func (w *Worker) peerConn(addr string) (*framedConn, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: no mesh address for destination rank")
	}
	w.mu.Lock()
	if fc, ok := w.peers[addr]; ok {
		w.mu.Unlock()
		return fc, nil
	}
	w.mu.Unlock()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial peer %s: %w", addr, err)
	}
	fc := newFramedConn(c)
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.peers[addr]; ok {
		// Lost the dial race; keep the first connection.
		c.Close()
		return prev, nil
	}
	if w.closed {
		c.Close()
		return nil, fmt.Errorf("cluster: worker closed")
	}
	w.peers[addr] = fc
	return fc, nil
}

// startJob sets the job's header and launches its runner.
func (w *Worker) startJob(hdr *jobHeader, in *parfmm.RankInput) {
	j := w.jobFor(hdr.Job)
	if j == nil {
		return
	}
	j.mu.Lock()
	j.hdr = hdr
	j.mu.Unlock()
	// The runner is counted under w.mu, where teardown marks the worker
	// closed: Kill's wait for runners never overlaps a runner's start.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.jobWG.Add(1)
	go w.runJob(j, in)
}

// runJob executes this worker's rank of the job and reports its result,
// or the failure that aborted the job when it was the rank's own.
func (w *Worker) runJob(j *workerJob, in *parfmm.RankInput) {
	defer w.jobWG.Done()
	defer w.finishJob(j.id)
	opt, err := j.hdr.options()
	if err != nil {
		w.reportJobError(j, err)
		return
	}
	// The engine fans out over the worker's whole pool and holds its lease
	// across Ghost.Exchange, blocked in receives. Nothing waits on those
	// lanes meanwhile: the pool is this worker's own, its only user is the
	// job's one rank, and the coordinator runs one job at a time (evalMu).
	opt.Pool, opt.Workers = w.pool, w.pool.MaxWorkers()
	// The rank computes under ctx; abort cancels it, so an aborted job
	// stops within one chunk of a pass instead of at its next receive.
	ctx, cancel := context.WithCancel(w.runCtx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	if j.abortErr != nil { // aborted before it started
		cancel()
	}
	j.mu.Unlock()

	out, err := w.runRank(ctx, j, in, opt)
	if err != nil {
		// Only a failure of this rank is reported; an abort's echo is not.
		if j.abort(err) {
			w.reportJobError(j, err)
		}
		return
	}
	var tl []byte
	if out.Timeline != nil {
		tl, _ = json.Marshal(out.Timeline)
	}
	rr := rankResultWire{Rank: j.hdr.Rank, Pot: out.Pot, TL: tl}
	if err := w.ctrl.writeFrame(fJobResult, encodeJobResult(j.id, rr)); err != nil {
		w.log.Warn("cluster worker: result send failed", "job", j.id, "err", err)
	}
}

// runRank evaluates the rank, turning the transport's panics (a broken
// peer connection, the job's abort) and any other panic into errors.
func (w *Worker) runRank(ctx context.Context, j *workerJob, in *parfmm.RankInput, opt parfmm.Options) (out *parfmm.RankOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			if wf, ok := r.(wireFailure); ok {
				err = wf.err
				return
			}
			err = errs.Newf(errs.CodeInternal, "kifmm: cluster rank %d panic: %v", j.hdr.Rank, r)
		}
	}()
	out, err = parfmm.EvaluateRank(ctx, &wireTransport{w: w, j: j, rank: j.hdr.Rank}, in, opt)
	return out, errs.Typed(err, errs.CodeInvalidInput)
}

func (w *Worker) reportJobError(j *workerJob, err error) {
	code := errs.CodeInternal
	if c, ok := errs.CodeOf(err); ok {
		code = c
	}
	if werr := w.ctrl.writeFrame(fJobError, encodeJobStatus(j.id, string(code), err.Error())); werr != nil {
		w.log.Warn("cluster worker: error report failed", "job", j.id, "err", werr)
	}
}

// Close drains the worker gracefully: it announces the drain so the
// coordinator stops assigning it work, waits for in-flight jobs, then
// tears the connections down and joins every goroutine.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	_ = w.ctrl.writeFrame(fDrain, nil)
	w.jobWG.Wait()
	w.teardown()
	w.wg.Wait()
	return nil
}

// Kill tears the worker down immediately — no drain. The in-flight rank
// aborts and Kill waits for it to unwind; the coordinator notices via the
// dropped connection or a missed heartbeat. Test hook for failure
// injection, and the path crash shutdowns take.
func (w *Worker) Kill() {
	w.teardown()
	w.abortAll(errs.New(errs.CodeWorkerLost, "kifmm: worker killed"))
	w.jobWG.Wait()
	w.wg.Wait()
}

func (w *Worker) teardown() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	peers := w.peers
	w.peers = make(map[string]*framedConn)
	inbound := w.inbound
	w.inbound = nil
	w.mu.Unlock()
	w.ctrl.Close()
	w.ln.Close()
	for _, fc := range peers {
		fc.Close()
	}
	for _, fc := range inbound {
		fc.Close()
	}
	// Cancel the ranks only now: a rank that sees its context end reports
	// canceled to the coordinator, and a killed worker's job must fail as
	// the coordinator sees it, worker_lost.
	if w.cancelRun != nil {
		w.cancelRun()
	}
}
