package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	kifmm "repro"
	"repro/client"
	"repro/internal/service"
)

// httpFront serves handler on a loopback port picked by the kernel.
type httpFront struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func startHTTP(handler http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return f, nil
}

func (f *httpFront) stop() {
	_ = f.srv.Close()
	<-f.done
}

// opTraceparent encodes an operation id as a W3C traceparent header, so
// the middleware on the server side can find the client span that caused
// the request.
func opTraceparent(op int) string {
	return fmt.Sprintf("00-%032x-%016x-01", op+1, op+1)
}

func opFromTraceparent(h string) (int, bool) {
	if len(h) != 55 {
		return 0, false
	}
	v, err := strconv.ParseUint(h[3:35], 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return int(v - 1), true
}

// opSpans maps an operation id to a span of that operation, handed from
// the goroutine that recorded it to the one that needs it.
type opSpans struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    map[int]*span
}

func newOpSpans() *opSpans {
	o := &opSpans{m: make(map[int]*span)}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *opSpans) put(op int, s *span) {
	o.mu.Lock()
	o.m[op] = s
	o.mu.Unlock()
	o.cond.Broadcast()
}

func (o *opSpans) get(op int) *span {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[op]
}

// wait blocks until a span for op has been put. A response can reach the
// client before the server-side middleware has closed its span; the
// caller of a completed request waits for it here.
func (o *opSpans) wait(op int) *span {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.m[op] == nil {
		o.cond.Wait()
	}
	return o.m[op]
}

// httpTrace is the benchmark's tracing around one HTTP server: callers
// announce the client span of each operation, and the middleware records
// a service.handler span around Server.ServeHTTP, parented on the client
// span named by the request's traceparent.
type httpTrace struct {
	rec      *recorder
	clients  *opSpans
	handlers *opSpans
}

func newHTTPTrace(rec *recorder) *httpTrace {
	return &httpTrace{rec: rec, clients: newOpSpans(), handlers: newOpSpans()}
}

// begin opens the client span of operation op and returns it with the
// context that carries its traceparent.
func (t *httpTrace) begin(ctx context.Context, name string, op, lane int) (*span, context.Context) {
	sp := t.rec.start(name, nil, op, lane)
	t.clients.put(op, sp)
	return sp, client.WithTraceparent(ctx, opTraceparent(op))
}

func (t *httpTrace) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := opFromTraceparent(r.Header.Get("Traceparent"))
		parent := t.clients.get(op)
		if !ok || parent == nil {
			next.ServeHTTP(w, r)
			return
		}
		s := t.rec.start("service.handler", parent, op, parent.Lane)
		next.ServeHTTP(w, r)
		s.end()
		t.handlers.put(op, s)
	})
}

// countingTransport counts the requests and body bytes a client moves.
type countingTransport struct {
	requests, reqBytes, respBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if r.ContentLength > 0 {
		c.reqBytes.Add(r.ContentLength)
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// svcWorkload is the serving path: an in-process kifmm HTTP server and
// two clients, one sending JSON bodies and one binary frames. Callers run
// sessions (register one of a few geometries, then evaluate against it)
// in a closed loop, each caller switching client from one session to the
// next. Twelve geometries rotate through eight cache slots, so
// registrations both hit and miss.
type svcWorkload struct {
	seed  int64
	geoms [][]float64
	dens  [][]float64

	rec *recorder // nil in the untraced run
	// tracing switches the callers between plain and traced requests, so
	// the traced run can take its untraced baseline under the same load.
	tracing bool
	httpTr  *httpTrace
	counter *countingTransport

	svc     *service.Service
	front   *httpFront
	clients []*client.Client

	refMu sync.Mutex
	refs  [][]float64 // first result per geometry
	first []float64
	fstS  float64
}

const (
	svcPoints = 3000
	// svcMaxPoints is the leaf threshold s. 3 000 uniform points put 47 +- 7
	// in each of the 64 level-2 boxes; at the default s=60 a few of them
	// split, a different few for every geometry, and the evaluation time
	// ranged from 30 to 40 ms with the seed. At s=100 none splits: every
	// geometry has the same tree.
	svcMaxPoints    = 100
	svcGeometries   = 12
	svcCacheSize    = 8
	svcEvalsPerSess = 6
	svcWarm         = time.Second
)

// svcCallers is how many callers run sessions at once: two, but never more
// than the run has lanes (benchLanes). Two callers on one lane measure the
// Go scheduler: each hand-over between client, server and engine waits for
// the other caller's computation to use up its 10 ms time slice, so every
// evaluation took a whole number of slices (60, 70, 80 ms) and op_p50_s
// moved in 10 ms steps.
func svcCallers() int { return min(2, runtime.GOMAXPROCS(0)) }

func (w *svcWorkload) generate(seed int64) {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < svcGeometries; g++ {
		w.geoms = append(w.geoms, genUniform(rng, svcPoints))
		w.dens = append(w.dens, genDensities(rng, svcPoints))
	}
	w.refs = make([][]float64, svcGeometries)
}

func (w *svcWorkload) planRequest(pts []float64) client.PlanRequest {
	return client.PlanRequest{Src: pts, Kernel: client.KernelSpec{Name: "laplace"}, Degree: 6, MaxPoints: svcMaxPoints}
}

func (w *svcWorkload) setup(ctx context.Context) error {
	w.svc = service.New(service.Config{CacheSize: svcCacheSize})
	var handler http.Handler = service.NewServer(w.svc)
	hc := http.DefaultClient
	if w.rec != nil {
		w.httpTr = newHTTPTrace(w.rec)
		handler = w.httpTr.wrap(handler)
		w.counter = &countingTransport{}
		hc = &http.Client{Transport: w.counter}
	}
	front, err := startHTTP(handler)
	if err != nil {
		return err
	}
	w.front = front
	retry := client.WithRetry(client.RetryPolicy{})
	w.clients = []*client.Client{
		client.New(front.base, client.WithHTTPClient(hc), retry),
		client.New(front.base, client.WithHTTPClient(hc), retry, client.WithBinary()),
	}
	info, err := w.clients[0].RegisterPlan(ctx, w.planRequest(w.geoms[0]))
	if err != nil {
		return err
	}
	start := time.Now()
	w.first, _, err = w.clients[0].Evaluate(ctx, info.ID, w.dens[0])
	w.fstS = time.Since(start).Seconds()
	w.refs[0] = w.first
	return err
}

func (w *svcWorkload) accuracy() (float64, error) {
	return accuracyDigits(w.seed, kifmm.Laplace(), w.geoms[0], w.dens[0], w.first)
}

// sameAsFirst compares pot with the first result seen for geometry g,
// which it becomes if there was none.
func (w *svcWorkload) sameAsFirst(g int, pot []float64) bool {
	w.refMu.Lock()
	defer w.refMu.Unlock()
	if w.refs[g] == nil {
		w.refs[g] = pot
		return true
	}
	return bitsEqual(pot, w.refs[g])
}

// svcSamples is what one caller collected while recording was on.
type svcSamples struct {
	evals, hits, misses []float64
	attempted, failed   int
	// traced-run extras
	stages            []stageSample
	evalWalls         []float64
	clientSelf        [2][]float64 // by client: JSON, frame
	handlerSelf       []float64
	builds, footprint []float64
	calls             int
}

// merge appends o's samples and counts to s.
func (s *svcSamples) merge(o svcSamples) {
	s.evals = append(s.evals, o.evals...)
	s.hits = append(s.hits, o.hits...)
	s.misses = append(s.misses, o.misses...)
	s.stages = append(s.stages, o.stages...)
	s.evalWalls = append(s.evalWalls, o.evalWalls...)
	for i := range s.clientSelf {
		s.clientSelf[i] = append(s.clientSelf[i], o.clientSelf[i]...)
	}
	s.handlerSelf = append(s.handlerSelf, o.handlerSelf...)
	s.builds = append(s.builds, o.builds...)
	s.footprint = append(s.footprint, o.footprint...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.calls += o.calls
}

// runCaller is one closed-loop caller: sessions until stop is set. With
// a recorder every request carries a traceparent and evaluations ask for
// the server's span tree.
func (w *svcWorkload) runCaller(ctx context.Context, idx int, recording, stop *atomic.Bool, nextOp *atomic.Int64) svcSamples {
	var s svcSamples
	rng := rand.New(rand.NewSource(w.seed*31 + int64(idx)))
	for session := 0; !stop.Load(); session++ {
		ci := (idx + session) % len(w.clients)
		c := w.clients[ci]
		g := rng.Intn(svcGeometries)
		op := int(nextOp.Add(1))
		rctx := ctx
		var sp *span
		if w.tracing {
			sp, rctx = w.httpTr.begin(ctx, "client.register", op, idx)
		}
		t := time.Now()
		info, err := c.RegisterPlan(rctx, w.planRequest(w.geoms[g]))
		dt := time.Since(t).Seconds()
		if sp != nil {
			sp.end()
		}
		s.calls++
		rec := recording.Load()
		if rec {
			s.attempted++
		}
		if err != nil {
			if rec {
				s.failed++
			}
			continue
		}
		if rec {
			if info.Cached {
				s.hits = append(s.hits, dt)
			} else {
				s.misses = append(s.misses, dt)
				s.builds = append(s.builds, float64(info.BuildNanos)/1e9)
			}
			s.footprint = append(s.footprint, float64(info.FootprintBytes)/1e6)
		}
		for e := 0; e < svcEvalsPerSess && !stop.Load(); e++ {
			if w.tracing {
				w.tracedEval(ctx, ci, idx, int(nextOp.Add(1)), info.ID, g, recording, &s)
				continue
			}
			t := time.Now()
			pot, _, err := c.Evaluate(ctx, info.ID, w.dens[g])
			dt := time.Since(t).Seconds()
			s.calls++
			if !recording.Load() {
				continue
			}
			s.evals = append(s.evals, dt)
			s.attempted++
			if err != nil || !w.sameAsFirst(g, pot) {
				s.failed++
			}
		}
	}
	return s
}

// tracedEval is one traced evaluation by caller idx through client ci.
func (w *svcWorkload) tracedEval(ctx context.Context, ci, idx, op int, planID string, g int, recording *atomic.Bool, s *svcSamples) {
	sp, tctx := w.httpTr.begin(ctx, "client.evaluate", op, idx)
	pot, st, tree, err := w.clients[ci].EvaluateTraced(tctx, planID, w.dens[g])
	sp.end()
	s.calls++
	if !recording.Load() {
		return
	}
	s.attempted++
	if err != nil || !w.sameAsFirst(g, pot) {
		s.failed++
		return
	}
	s.evals = append(s.evals, sp.dur().Seconds())
	if tree == nil {
		return
	}
	h := w.httpTr.handlers.wait(op)
	w.rec.graft(h, tree)
	s.clientSelf[ci] = append(s.clientSelf[ci], w.rec.selfTime(sp).Seconds())
	s.handlerSelf = append(s.handlerSelf, w.rec.selfTime(h).Seconds())
	s.evalWalls = append(s.evalWalls, tree.Duration.Seconds())
	s.stages = append(s.stages, stageFromWire(st))
}

func stageFromWire(s service.EvalStats) stageSample {
	ns := func(v int64) float64 { return float64(v) / 1e9 }
	return stageSample{
		up: ns(s.UpNanos), downU: ns(s.DownUNanos), downV: ns(s.DownVNanos),
		downW: ns(s.DownWNanos), downX: ns(s.DownXNanos), eval: ns(s.EvalNanos),
		total: ns(s.TotalNanos), flops: s.Flops, lanes: s.GrantedLanes,
	}
}

// drive runs the callers for warm + d and returns their samples from the
// d part, with the allocation and wall totals of that part.
func (w *svcWorkload) drive(ctx context.Context, d time.Duration) ([]svcSamples, uint64, time.Duration) {
	var recording, stop atomic.Bool
	var nextOp atomic.Int64
	out := make([]svcSamples, svcCallers())
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = w.runCaller(ctx, i, &recording, &stop, &nextOp)
		}(i)
	}
	time.Sleep(svcWarm)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	recording.Store(true)
	time.Sleep(d)
	recording.Store(false)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	stop.Store(true)
	wg.Wait()
	return out, ms1.TotalAlloc - ms0.TotalAlloc, wall
}

func (w *svcWorkload) measure(ctx context.Context, d time.Duration) (measured, error) {
	var m measured
	opPhase := d * 8 / 10
	samples, alloc, wall := w.drive(ctx, opPhase)
	for _, s := range samples {
		m.ops = append(m.ops, s.evals...)
		m.attempted += s.attempted
		m.failed += s.failed
	}
	m.allocBytes = alloc
	m.opWall = wall
	m.points = float64(len(m.ops) * svcPoints)

	// The write path on its own: each client in turn registers geometries
	// the server has not seen, so every one hashes, misses, builds and
	// (past eight) evicts. The sessions hold ~15 misses per run, too few
	// for a steady median; theirs are service.register_miss_s of the
	// traced run.
	rng := rand.New(rand.NewSource(w.seed + 1))
	for _, c := range w.clients {
		var walls []float64
		start := time.Now()
		for time.Since(start) < (d-opPhase)/time.Duration(len(w.clients)) {
			req := w.planRequest(genUniform(rng, svcPoints))
			t := time.Now()
			info, err := c.RegisterPlan(ctx, req)
			walls = append(walls, time.Since(t).Seconds())
			m.attempted++
			if err != nil || info.Cached {
				m.failed++
			}
		}
		m.registers = append(m.registers, walls...)
		// One client registers in JSON and one in frames, ~6 ms against
		// ~2.5 ms: the median of the pooled samples would flip between
		// the two modes, so the clients' medians are averaged.
		m.registerP50 += median(walls) / float64(len(w.clients))
	}
	return m, nil
}

func (w *svcWorkload) shape() shape {
	return shape{pts: w.geoms[0], kernel: kifmm.Laplace(), degree: 6, maxPoints: svcMaxPoints, payload: w.dens[0]}
}

func (w *svcWorkload) trace(ctx context.Context, d time.Duration, rec *recorder, layer map[string]float64) error {
	// The untraced baseline of the overhead ratio, under the same callers:
	// plain requests, no traceparent the middleware knows.
	var plain []float64
	base, _, _ := w.drive(ctx, d/3)
	for _, s := range base {
		plain = append(plain, s.evals...)
	}
	w.tracing = true
	before := w.svc.MetricsRegistry().Snapshot()
	req0, reqB0, respB0 := w.counter.requests.Load(), w.counter.reqBytes.Load(), w.counter.respBytes.Load()

	samples, _, _ := w.drive(ctx, d*2/3)

	after := w.svc.MetricsRegistry().Snapshot()
	delta := func(key string) float64 { return after[key] - before[key] }
	var all svcSamples
	for _, s := range samples {
		all.merge(s)
	}
	layer["client.evaluate_overhead_json_s"] = median(all.clientSelf[0])
	layer["client.evaluate_overhead_frame_s"] = median(all.clientSelf[1])
	if all.failed > 0 {
		return fmt.Errorf("traced run: %d operations failed", all.failed)
	}
	fillStages(layer, all.stages, all.evalWalls)
	for _, pass := range []string{"permute", "up", "down", "leaf"} {
		layer["fmm.pass_"+pass+"_wall_s"] = median(rec.durations(pass))
	}
	layer["fmm.build_s"] = median(all.builds)
	layer["fmm.first_eval_extra_s"] = w.fstS - median(plain)
	layer["fmm.plan_footprint_mb"] = median(all.footprint)
	layer["run.op_p90_s"] = percentile(all.evals, 0.9)
	layer["run.trace_overhead"] = median(all.evals) / median(plain)

	var lanes []float64
	for _, st := range all.stages {
		lanes = append(lanes, float64(st.lanes))
	}
	layer["exec.granted_lanes_mean"] = mean(lanes)
	if n := delta("kifmm_lease_wait_seconds_count"); n > 0 {
		layer["exec.lease_wait_mean_s"] = delta("kifmm_lease_wait_seconds_sum") / n
	}

	// Callers finish the request in flight after recording stops, so the
	// transport counters are divided by every call made, recorded or not.
	requests := float64(w.counter.requests.Load() - req0)
	layer["client.request_bytes_per_op"] = float64(w.counter.reqBytes.Load()-reqB0) / float64(all.calls)
	layer["client.response_bytes_per_op"] = float64(w.counter.respBytes.Load()-respB0) / float64(all.calls)
	layer["client.retries"] = requests - float64(all.calls)

	layer["service.handler_self_s"] = median(all.handlerSelf)
	layer["service.register_hit_s"] = median(all.hits)
	layer["service.register_miss_s"] = median(all.misses)
	hits, misses := delta("kifmm_plan_cache_hits_total"), delta("kifmm_plan_cache_misses_total")
	if hits+misses > 0 {
		layer["service.plan_cache_hit_share"] = hits / (hits + misses)
	}
	layer["service.plan_cache_evictions"] = delta("kifmm_plan_cache_evictions_total")
	return nil
}

func (w *svcWorkload) close() {
	if w.front != nil {
		w.front.stop()
	}
}
