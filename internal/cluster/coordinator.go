package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parfmm"
)

// CoordinatorConfig configures the cluster coordinator.
type CoordinatorConfig struct {
	// Heartbeat is the expected worker heartbeat interval (default 2s).
	// A worker silent for two intervals is declared lost.
	Heartbeat time.Duration
	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// workerConn is the coordinator's view of one joined worker.
type workerConn struct {
	id       int64
	addr     string // mesh address
	fc       *framedConn
	lastBeat atomic.Int64 // unix nanos of the last frame received
	drained  atomic.Bool
}

func (wc *workerConn) beat() { wc.lastBeat.Store(time.Now().UnixNano()) }

// coordJob is one in-flight distributed evaluation.
type coordJob struct {
	id     uint64
	inputs []*parfmm.RankInput
	ranks  []*workerConn // the worker hosting each rank

	mu        sync.Mutex
	pots      [][]float64
	tls       []*obs.RankTimeline
	reported  []bool // per rank: result received (a rank's Pot may be empty)
	remaining int    // ranks whose results are outstanding

	done     chan struct{}
	err      error
	finished bool
}

// finish resolves the job exactly once.
func (j *coordJob) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	j.err = err
	close(j.done)
}

// owns reports whether wc hosts one of the job's ranks.
func (j *coordJob) owns(wc *workerConn) bool { return slices.Contains(j.ranks, wc) }

// Coordinator accepts worker connections, tracks their health, and
// scatters cluster-sized evaluations across them: it Morton-partitions
// the request geometry into one rank per worker, streams each worker its
// share, and gathers potentials and per-rank timelines back. It is the
// control plane only: the ranks exchange ghosts and reduce their
// collectives over the worker mesh.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener
	log *slog.Logger

	mu         sync.Mutex
	workers    map[int64]*workerConn
	jobs       map[uint64]*coordJob
	nextWorker int64
	nextJob    uint64
	closed     bool
	passObs    func(pass string, seconds float64)

	// evalMu serializes cluster evaluations: a rank holds its worker's
	// whole lane pool until its job ends, blocked receives included, so
	// two jobs spread over the same workers could each wait for lanes the
	// other holds. Queued requests wait here.
	evalMu sync.Mutex

	scatterBytes atomic.Int64
	gatherBytes  atomic.Int64
	evals        atomic.Int64
	lost         atomic.Int64

	wg sync.WaitGroup
}

// StartCoordinator listens on addr (e.g. "127.0.0.1:0") and serves
// worker joins until Close. ctx bounds the coordinator's lifetime:
// cancelling it closes the coordinator, failing in-flight jobs and
// dropping every worker connection.
func StartCoordinator(ctx context.Context, addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, errs.Newf(errs.CodeInternal, "cluster: coordinator listen: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		log:     cfg.Logger,
		workers: make(map[int64]*workerConn),
		jobs:    make(map[uint64]*coordJob),
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	context.AfterFunc(ctx, func() { c.Close() })
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr is the coordinator's control listener address workers join.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// handleConn runs one worker's session: handshake, then a frame loop
// until the connection drops.
func (c *Coordinator) handleConn(conn net.Conn) {
	fc := newFramedConn(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := fc.readFrame()
	if err != nil || ft != fHello {
		fc.Close()
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil || hello.PeerAddr == "" {
		fc.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	wc := &workerConn{addr: hello.PeerAddr, fc: fc}
	wc.beat()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fc.Close()
		return
	}
	c.nextWorker++
	wc.id = c.nextWorker
	c.workers[wc.id] = wc
	c.mu.Unlock()

	ack, _ := json.Marshal(helloAck{WorkerID: wc.id, HeartbeatNS: int64(c.cfg.Heartbeat)})
	if err := fc.writeFrame(fHelloAck, ack); err != nil {
		c.dropWorker(wc, err)
		return
	}
	c.log.Info("cluster worker joined", "worker_id", wc.id, "mesh_addr", wc.addr)

	for {
		ft, payload, err := fc.readFrame()
		if err != nil {
			c.dropWorker(wc, err)
			return
		}
		wc.beat()
		switch ft {
		case fHeartbeat:
			// beat() above is the whole point.
		case fDrain:
			wc.drained.Store(true)
		case fJobResult:
			if job, rr, err := decodeJobResult(payload); err == nil {
				c.gatherBytes.Add(int64(len(payload)))
				c.handleResult(job, rr)
			}
		case fJobError:
			if job, code, msg, err := decodeJobStatus(payload); err == nil {
				c.failJob(job, errs.New(errs.Code(code), msg))
			}
		}
	}
}

// monitor declares workers lost after two silent heartbeat intervals.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat / 2)
	defer t.Stop()
	for range t.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		var stale []*workerConn
		cut := time.Now().Add(-2 * c.cfg.Heartbeat).UnixNano()
		for _, wc := range c.workers {
			if wc.lastBeat.Load() < cut {
				stale = append(stale, wc)
			}
		}
		c.mu.Unlock()
		for _, wc := range stale {
			c.dropWorker(wc, fmt.Errorf("heartbeat timed out"))
		}
	}
}

// dropWorker removes a worker and fails every job it participated in
// with a typed worker_lost error — the no-hang guarantee: a blocked
// Evaluate resolves within a heartbeat interval of the loss, not at
// some TCP timeout.
func (c *Coordinator) dropWorker(wc *workerConn, cause error) {
	c.mu.Lock()
	if _, ok := c.workers[wc.id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.workers, wc.id)
	var victims []*coordJob
	for _, j := range c.jobs {
		if j.owns(wc) {
			victims = append(victims, j)
		}
	}
	closed := c.closed
	c.mu.Unlock()

	wc.fc.Close()
	if !closed && !wc.drained.Load() {
		// A drained worker disconnecting is a graceful exit, not a loss.
		c.lost.Add(1)
		c.log.Warn("cluster worker lost", "worker_id", wc.id, "mesh_addr", wc.addr, "cause", cause)
	}
	for _, j := range victims {
		err := errs.Newf(errs.CodeWorkerLost, "kifmm: worker %d (%s) lost during evaluation: %v", wc.id, wc.addr, cause)
		c.abortJob(j, err, wc)
		j.finish(err)
	}
}

// abortJob tells the job's surviving workers to unwind their ranks.
func (c *Coordinator) abortJob(j *coordJob, err error, except *workerConn) {
	code := errs.CodeInternal
	if cd, ok := errs.CodeOf(err); ok {
		code = cd
	}
	payload := encodeJobStatus(j.id, string(code), err.Error())
	for _, wc := range j.ranks {
		if wc != except {
			_ = wc.fc.writeFrame(fJobAbort, payload)
		}
	}
}

func (c *Coordinator) jobByID(id uint64) *coordJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

func (c *Coordinator) failJob(id uint64, err error) {
	j := c.jobByID(id)
	if j == nil {
		return
	}
	c.abortJob(j, err, nil)
	j.finish(err)
}

// handleResult records one rank's result; the last one resolves the job.
func (c *Coordinator) handleResult(id uint64, rr rankResultWire) {
	j := c.jobByID(id)
	if j == nil {
		return
	}
	j.mu.Lock()
	if rr.Rank < 0 || rr.Rank >= len(j.ranks) || j.reported[rr.Rank] {
		j.mu.Unlock()
		return
	}
	j.reported[rr.Rank] = true
	j.pots[rr.Rank] = rr.Pot
	if len(rr.TL) > 0 {
		var tl obs.RankTimeline
		if err := json.Unmarshal(rr.TL, &tl); err == nil {
			j.tls[rr.Rank] = &tl
		}
	}
	j.remaining--
	doneNow := j.remaining == 0
	j.mu.Unlock()
	if doneNow {
		j.finish(nil)
	}
}

// EvalRequest is one distributed evaluation: sources act on themselves
// (the service's one-shot shape) under the named kernel.
type EvalRequest struct {
	Src []float64 // flat xyz
	Den []float64 // SourceDim components per point

	Kernel    kernels.Spec
	Degree    int
	MaxPoints int
	MaxDepth  int
}

// EvalReport describes how a cluster evaluation ran.
type EvalReport struct {
	// Ranks is the job's rank count, Workers how many nodes hosted them:
	// one rank per worker, so the two are equal (both stay, bench/ reads
	// them).
	Ranks   int
	Workers int
	// ScatterBytes/GatherBytes are this job's control-plane volumes
	// (inputs out, results back; mesh traffic is in Timeline's ledger).
	ScatterBytes int64
	GatherBytes  int64
	// Timeline is the merged per-rank timeline from the real-transport
	// ledger — the same shape the simulated runs produce, on the wall
	// clock: each rank's tree opens when its worker started the job.
	Timeline *obs.Timeline
	Wall     time.Duration
}

// Evaluate scatters one evaluation across the connected workers and
// gathers the potentials, in the caller's global point order. It fails
// fast with a worker_lost error when no workers are connected (the
// degraded mode: single-node serving stays up, cluster-sized requests
// are rejected) or when a participant drops mid-job.
func (c *Coordinator) Evaluate(ctx context.Context, req EvalRequest) ([]float64, *EvalReport, error) {
	kern, err := kernels.FromSpec(req.Kernel)
	if err != nil {
		return nil, nil, err
	}
	sd, td := kern.SourceDim(), kern.TargetDim()
	n := len(req.Src) / 3
	if n == 0 || len(req.Src) != 3*n {
		return nil, nil, errs.Newf(errs.CodeInvalidInput, "kifmm: cluster evaluation needs flat xyz sources, got length %d", len(req.Src))
	}
	if len(req.Den) != n*sd {
		return nil, nil, errs.Newf(errs.CodeInvalidInput, "kifmm: cluster density length %d, want %d", len(req.Den), n*sd)
	}

	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	start := time.Now()
	gather0 := c.gatherBytes.Load() // jobs are serialized, so the growth is this job's

	// One rank per live, undrained worker, in join order, and no more
	// ranks than points.
	c.mu.Lock()
	var ranks []*workerConn
	for _, wc := range c.workers {
		if !wc.drained.Load() {
			ranks = append(ranks, wc)
		}
	}
	slices.SortFunc(ranks, func(a, b *workerConn) int { return cmp.Compare(a.id, b.id) })
	ranks = ranks[:min(len(ranks), n)]
	size := len(ranks)
	if size == 0 {
		c.mu.Unlock()
		return nil, nil, errs.New(errs.CodeWorkerLost, "kifmm: no cluster workers connected")
	}
	c.nextJob++
	job := &coordJob{
		id:       c.nextJob,
		ranks:    ranks,
		pots:     make([][]float64, size),
		tls:      make([]*obs.RankTimeline, size),
		reported: make([]bool, size),
		done:     make(chan struct{}),
	}
	job.remaining = size
	c.jobs[job.id] = job
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.jobs, job.id)
		c.mu.Unlock()
	}()

	job.inputs = parfmm.PartitionPoints(req.Src, req.Den, sd, size)

	// Scatter: each worker gets the shared header plus its rank's share.
	peers := make([]string, size)
	for r, wc := range ranks {
		peers[r] = wc.addr
	}
	var scatter int64
	hdr := req.header(job.id, peers)
	for r, wc := range ranks {
		hdr.Rank = r
		payload, err := encodeJobStart(&hdr, job.inputs[r])
		if err != nil {
			err = errs.Wrap(errs.CodeInternal, err)
			c.abortJob(job, err, nil)
			job.finish(err)
			return nil, nil, err
		}
		if werr := wc.fc.writeFrame(fJobStart, payload); werr != nil {
			c.dropWorker(wc, werr)
			break // dropWorker already failed the job
		}
		scatter += int64(len(payload))
	}
	c.scatterBytes.Add(scatter)

	select {
	case <-job.done:
	case <-ctx.Done():
		err := errs.FromContext(ctx.Err())
		c.abortJob(job, err, nil)
		job.finish(err)
		<-job.done
	}
	if job.err != nil {
		return nil, nil, job.err
	}
	c.evals.Add(1)

	// Gather: scatter each rank's potentials back to global point order.
	pot := make([]float64, n*td)
	for r := 0; r < size; r++ {
		idx := job.inputs[r].GlobalIdx
		rp := job.pots[r]
		if len(rp) != len(idx)*td {
			return nil, nil, errs.Newf(errs.CodeInternal, "kifmm: rank %d returned %d potentials, want %d", r, len(rp), len(idx)*td)
		}
		for i, g := range idx {
			copy(pot[int(g)*td:(int(g)+1)*td], rp[i*td:(i+1)*td])
		}
	}

	tl := obs.MergeTimeline(job.tls)
	c.observePasses(tl)
	report := &EvalReport{
		Ranks: size, Workers: size,
		ScatterBytes: scatter, GatherBytes: c.gatherBytes.Load() - gather0,
		Timeline: tl, Wall: time.Since(start),
	}
	return pot, report, nil
}

// commPasses are the span names of the algorithm's communication
// passes (the Algorithm-1 gather/scatter halves), fed to the pass
// observer as per-pass wire seconds.
var commPasses = map[string]bool{
	"source_gather":    true,
	"source_exchange":  true,
	"density_gather":   true,
	"density_exchange": true,
}

// SetPassObserver installs fn to receive per-pass wire seconds after
// each cluster evaluation (the service bridges this into its
// kifmm_cluster_pass_wire_seconds histogram).
func (c *Coordinator) SetPassObserver(fn func(pass string, seconds float64)) {
	c.mu.Lock()
	c.passObs = fn
	c.mu.Unlock()
}

func (c *Coordinator) observePasses(tl *obs.Timeline) {
	c.mu.Lock()
	fn := c.passObs
	c.mu.Unlock()
	if fn == nil {
		return
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s == nil { // the tree came off the wire
			return
		}
		if commPasses[s.Name] {
			fn(s.Name, s.Duration.Seconds())
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	for _, rt := range tl.Ranks {
		walk(rt.Root)
	}
}

// Workers is the live worker count.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// MaxHeartbeatAge is the staleness of the quietest worker's last frame
// (zero with no workers) — the service's cluster-health gauge.
func (c *Coordinator) MaxHeartbeatAge() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest int64
	for _, wc := range c.workers {
		if b := wc.lastBeat.Load(); oldest == 0 || b < oldest {
			oldest = b
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Since(time.Unix(0, oldest))
}

// ScatterBytes is the cumulative job-input volume sent to workers.
func (c *Coordinator) ScatterBytes() int64 { return c.scatterBytes.Load() }

// GatherBytes is the cumulative result volume received from workers.
func (c *Coordinator) GatherBytes() int64 { return c.gatherBytes.Load() }

// Evals is the count of completed cluster evaluations.
func (c *Coordinator) Evals() int64 { return c.evals.Load() }

// WorkersLost counts workers dropped by disconnect or heartbeat
// timeout.
func (c *Coordinator) WorkersLost() int64 { return c.lost.Load() }

// Close stops the coordinator: the listener closes, every worker
// connection drops, and in-flight jobs fail.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := make([]*workerConn, 0, len(c.workers))
	for _, wc := range c.workers {
		workers = append(workers, wc)
	}
	c.mu.Unlock()
	c.ln.Close()
	for _, wc := range workers {
		c.dropWorker(wc, fmt.Errorf("coordinator shutting down"))
	}
	c.wg.Wait()
	return nil
}
