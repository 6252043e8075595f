package service

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	kifmm "repro"
	"repro/internal/cluster"
	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/morton"
	"repro/internal/obs"
)

// The service speaks the kifmm error taxonomy (internal/errs): every
// error it returns carries a machine-readable code the HTTP layer maps
// to a status and puts on the wire, so the Go client can reconstruct
// the identical typed error. The aliases below keep the familiar names;
// they are the taxonomy sentinels, usable as errors.Is targets.
var (
	// ErrPlanNotFound reports an evaluation against an unknown (or
	// evicted) plan id; HTTP 404.
	ErrPlanNotFound = errs.ErrPlanNotFound
	// ErrBadRequest is client-side input error (invalid_input); HTTP 400.
	ErrBadRequest = errs.ErrInvalidInput
	// ErrTooLarge reports a request exceeding a configured size bound
	// (body bytes, option caps, batch width); HTTP 413.
	ErrTooLarge = errs.ErrPlanTooLarge
	// ErrInternal wraps server-side failures (e.g. a recovered panic
	// during plan construction); HTTP 500 so monitoring sees a server
	// defect, not a client mistake.
	ErrInternal = errs.ErrInternal
)

func badRequest(format string, args ...any) error {
	return errs.Newf(errs.CodeInvalidInput, "service: "+format, args...)
}

func tooLarge(format string, args ...any) error {
	return errs.Newf(errs.CodePlanTooLarge, "service: "+format, args...)
}

// Config sizes the service.
type Config struct {
	// CacheSize is the maximum number of cached plans (default 32).
	// Eviction is LRU; an evicted plan finishes in-flight evaluations
	// but is no longer addressable by id.
	CacheSize int
	// CacheBytes additionally bounds the summed estimated footprint
	// (tree + the plan's share of the operators it uses) of cached
	// plans; 0 means no bytes bound. A near-body-limit geometry can pin
	// ~GBs of operators per plan, so byte bounds are the defense the
	// count bound alone is not. Eviction closes the plan, which frees
	// the operators no remaining plan uses (the operator store keeps a
	// fixed 32 MiB of the most recently released ones warm, outside this
	// bound). The most recent plan is always retained.
	CacheBytes int64
	// MaxWorkers is the lane capacity of the service's shared elastic
	// pool (default GOMAXPROCS) — the total intra-evaluation
	// parallelism across all concurrent requests. Unlike the old
	// static Workers x EvalWorkers split, the width of each request is
	// decided at admission by current load: a lone evaluation on an
	// idle server is granted up to MaxWorkers lanes, while under
	// saturation every request degrades toward one lane and queues
	// once not even that is free. Running evaluations
	// shed revoked lanes at chunk boundaries, so a long sweep shrinks
	// as new requests arrive. Granted widths never change results
	// (bitwise).
	MaxWorkers int
	// TraceRing is how many recent evaluation span trees are retained
	// for GET /v1/evals/recent (default 64). Memory is bounded: the
	// ring holds at most this many finished trees, each a few spans
	// per tree level.
	TraceRing int
	// Cluster, when non-nil, makes this service a cluster coordinator:
	// one-shot evaluations with at least ClusterMinPoints sources (and
	// default targets) fan out across the connected workers instead of
	// running on the local engine. Plan-based endpoints always run
	// locally — the plan cache is a single-node amortization.
	Cluster *cluster.Coordinator
	// ClusterMinPoints is the source-count threshold at which one-shot
	// evaluations route to the cluster (default 8192). Ignored when
	// Cluster is nil.
	ClusterMinPoints int
	// UploadBytes bounds the aggregate size of in-flight chunked
	// geometry uploads (default 1 GiB). Each upload is pre-sized at
	// creation; uploads idle past their TTL release their budget.
	UploadBytes int64
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 32
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 64
	}
	if c.ClusterMinPoints <= 0 {
		c.ClusterMinPoints = 8192
	}
	if c.UploadBytes <= 0 {
		c.UploadBytes = 1 << 30
	}
	return c
}

// buildCall is one in-flight plan construction; concurrent Register
// calls for the same key wait on done instead of building again.
//
// The build itself runs on its own goroutine under a context detached
// from every caller: each interested caller (the initiator and every
// coalesced waiter) holds a reference, and only when the last of them
// walks away is the build cancelled. An initiator disconnect therefore
// no longer kills the build for surviving waiters — they get the plan,
// not a cancellation error and a wasted rebuild.
type buildCall struct {
	done chan struct{}
	plan *plan
	err  error

	mu       sync.Mutex
	waiters  int
	orphaned bool               // waiters hit 0: the build is being cancelled
	cancel   context.CancelFunc // cancels the detached build context
}

// join registers interest in the build's outcome. It reports false when
// the call is already orphaned (every earlier waiter gave up and the
// build's cancellation is in flight) — the caller must start a fresh
// build instead of inheriting a doomed one.
func (c *buildCall) join() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.orphaned {
		return false
	}
	c.waiters++
	return true
}

// leave withdraws interest; the last waiter out cancels the build.
func (c *buildCall) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiters--
	if c.waiters == 0 {
		c.orphaned = true
		c.cancel()
	}
}

// Service owns the plan cache, the singleflight build table and the
// elastic evaluation pool. It is safe for concurrent use.
type Service struct {
	cfg Config

	mu       sync.Mutex
	cache    *planCache
	building map[string]*buildCall

	// buildBarrier, when non-nil, runs at the start of every build
	// goroutine — a test seam for orchestrating singleflight scenarios
	// (block a build until waiters have joined or cancelled).
	buildBarrier func(key string)

	// pool is the elastic lane pool every plan of this service shares:
	// evaluation admission happens inside the engine (an evaluation
	// leases its width here) and plan builds are admitted through the
	// same pool at width 1, so builds and evaluations together never
	// oversubscribe MaxWorkers lanes.
	pool *kifmm.Pool

	// m is the observability core: every service counter, gauge and
	// histogram lives in its registry (internal/obs), rendered as
	// Prometheus text at GET /metrics.
	m *metrics

	// spans retains recent evaluation span trees for GET
	// /v1/evals/recent; bounded (Config.TraceRing).
	spans *obs.SpanRing

	// uploads holds in-flight chunked geometry uploads (see uploads.go);
	// bounded by Config.UploadBytes.
	uploads *uploadStore
}

// New returns a ready Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	pool := kifmm.NewPool(cfg.MaxWorkers)
	s := &Service{
		cfg:      cfg,
		cache:    newPlanCache(cfg.CacheSize, cfg.CacheBytes),
		building: make(map[string]*buildCall),
		pool:     pool,
		spans:    obs.NewSpanRing(cfg.TraceRing),
		uploads:  newUploadStore(cfg.UploadBytes),
	}
	s.m = newMetrics(s)
	pool.SetAcquireObserver(func(wait time.Duration, _ int) {
		s.m.leaseWaitSeconds.Observe(wait.Seconds())
	})
	return s
}

// MetricsRegistry exposes the service's observability registry — the
// source GET /metrics renders and tests introspect.
func (s *Service) MetricsRegistry() *obs.Registry { return s.m.reg }

// RecentSpans returns up to n recent evaluation span trees, newest
// first (n <= 0 means all retained).
func (s *Service) RecentSpans(n int) []*obs.Span { return s.spans.Recent(n) }

// Register resolves req to a cached plan or builds one, coalescing
// concurrent builds of the same key into a single construction. ctx
// covers the caller's wait: on a coalesced build owned by another
// caller, or on its own build (which is admitted through the elastic
// pool and abandons the expensive octree + operator setup at its next
// stage boundary when cancelled).
func (s *Service) Register(ctx context.Context, req PlanRequest) (PlanInfo, error) {
	p, cached, err := s.register(ctx, req)
	if err != nil {
		return PlanInfo{}, err
	}
	return p.info(cached), nil
}

// register is the plan-resolving core shared by Register and
// EvaluateOnce; it returns the plan itself so one-shot callers are
// immune to the plan being LRU-evicted between registration and
// evaluation.
//
// The build runs detached from any single caller's ctx (see buildCall):
// a caller's own ctx only abandons its wait, and the build is cancelled
// only when the initiator and every coalesced waiter have walked away.
func (s *Service) register(ctx context.Context, req PlanRequest) (*plan, bool, error) {
	src, trg, opt, spec, key, err := s.resolve(req)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if p, ok := s.cache.get(key); ok {
		s.m.cacheHits.Inc()
		s.mu.Unlock()
		return p, true, nil
	}
	if c, ok := s.building[key]; ok && c.join() {
		s.m.coalesced.Inc()
		s.mu.Unlock()
		return s.await(ctx, c, true)
	}
	// No build in flight (or only an orphaned one whose cancellation is
	// racing its cleanup): start a fresh one. Replacing the map entry is
	// safe — the orphaned build's cleanup only deletes its own entry.
	s.m.cacheMisses.Inc()
	bctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxfirst detached singleflight build deliberately outlives the initiating request
	c := &buildCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.building[key] = c
	s.mu.Unlock()

	go s.runBuild(bctx, key, c, src, trg, opt, spec)
	return s.await(ctx, c, false)
}

// await blocks until the coalesced build finishes or the caller's own
// ctx ends; giving up withdraws this caller's interest (the last one
// out cancels the build).
func (s *Service) await(ctx context.Context, c *buildCall, coalesced bool) (*plan, bool, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, false, c.err
		}
		return c.plan, coalesced, nil
	case <-ctx.Done():
		c.leave()
		return nil, false, errs.FromContext(ctx.Err())
	}
}

// runBuild executes one singleflight plan construction on its own
// goroutine. All cleanup — worker-slot release, building-table removal,
// closing c.done — runs in defers so a panicking build cannot leak a
// pool slot or leave waiters blocked on c.done forever. ctx is the
// detached build context, cancelled only when every interested caller
// has left.
func (s *Service) runBuild(ctx context.Context, key string, c *buildCall, src, trg []float64, opt kifmm.Options, spec kernels.Spec) {
	defer c.cancel() // release the detached context once the build settles
	defer func() {
		if r := recover(); r != nil {
			c.plan, c.err = nil, errs.Newf(errs.CodeInternal, "service: plan build panicked: %v", r)
		}
		s.mu.Lock()
		if s.building[key] == c {
			delete(s.building, key)
		}
		if c.err == nil {
			s.m.plansBuilt.Inc()
			s.m.planBuildSeconds.Observe(float64(c.plan.buildNS) / 1e9)
			// The cache closes victims as it evicts them (accounting
			// only; they stay usable for in-flight evaluations).
			s.m.evictions.Add(int64(len(s.cache.add(c.plan))))
		}
		s.mu.Unlock()
		close(c.done)
	}()
	if s.buildBarrier != nil {
		s.buildBarrier(key)
	}
	// Builds are the expensive step (octree + operator setup); admit
	// them through the same elastic pool as evaluations (one lane per
	// build) so a burst of distinct registrations cannot saturate the
	// machine. The wait honors the detached ctx — a build every caller
	// abandoned leaves the queue.
	lease, err := s.pool.Acquire(ctx, 1)
	if err != nil {
		c.err = errs.FromContext(err)
		return
	}
	defer lease.Release()
	c.plan, c.err = s.build(ctx, key, src, trg, opt, spec)
}

// resolve validates the request, computes the content-hash plan key and
// returns the normalized kernel spec alongside (build reuses it instead
// of re-deriving it from the kernel).
func (s *Service) resolve(req PlanRequest) (src, trg []float64, opt kifmm.Options, spec kernels.Spec, key string, err error) {
	src = req.Src
	// An upload reference substitutes a completed chunked upload's
	// words for inline coordinates; the plan key hashes the resolved
	// content either way, so upload-seeded and inline registrations of
	// the same geometry share one plan.
	if req.SrcUpload != "" {
		if len(src) > 0 {
			return nil, nil, opt, spec, "", badRequest("src and src_upload are mutually exclusive")
		}
		if src, err = s.uploads.take(req.SrcUpload); err != nil {
			return nil, nil, opt, spec, "", err
		}
	}
	if len(src) == 0 || len(src)%3 != 0 {
		return nil, nil, opt, spec, "", badRequest("src needs 3k > 0 coordinates, got %d", len(src))
	}
	if err := checkCoordinates("src", src); err != nil {
		return nil, nil, opt, spec, "", err
	}
	trg = req.Trg
	if req.TrgUpload != "" {
		if len(trg) > 0 {
			return nil, nil, opt, spec, "", badRequest("trg and trg_upload are mutually exclusive")
		}
		if trg, err = s.uploads.take(req.TrgUpload); err != nil {
			return nil, nil, opt, spec, "", err
		}
	}
	if len(trg) == 0 {
		trg = src
	} else if len(trg)%3 != 0 {
		return nil, nil, opt, spec, "", badRequest("trg needs 3k coordinates, got %d", len(trg))
	} else if err := checkCoordinates("trg", trg); err != nil {
		return nil, nil, opt, spec, "", err
	}
	if err := checkOptionBounds(req); err != nil {
		return nil, nil, opt, spec, "", err
	}
	opt, err = req.options()
	if err != nil {
		return nil, nil, opt, spec, "", errs.Typed(err, errs.CodeInvalidInput)
	}
	// Scheduling is server policy, not plan identity (PlanKey excludes
	// Workers and Pool): every plan shares the service pool, and each
	// evaluation may fan out to the whole machine when it is idle.
	opt.Workers = s.cfg.MaxWorkers
	opt.Pool = s.pool
	spec, err = kernels.SpecFor(opt.Kernel)
	if err != nil {
		return nil, nil, opt, spec, "", errs.Typed(err, errs.CodeInvalidInput)
	}
	key, err = kifmm.PlanKey(src, trg, opt)
	if err != nil {
		return nil, nil, opt, spec, "", errs.Typed(err, errs.CodeInvalidInput)
	}
	return src, trg, opt, spec, key, nil
}

// Option bounds enforced on network input. Surface construction costs
// grow like Degree^4 in memory and worse in time, so an uncapped degree
// from an untrusted request could wedge a worker slot near-forever;
// zero always means "library default".
const (
	maxRequestDegree    = 16
	maxRequestMaxPoints = 100000
	maxRequestMaxDepth  = morton.MaxLevel
)

// maxBatchSize bounds the number of density vectors one batch
// evaluation may carry. The engine holds one upward and one downward
// equivalent density per box per vector, so memory grows linearly in
// the batch; 256 keeps a worst-case request within the same order as
// the 256 MiB body bound.
const maxBatchSize = 256

// maxCoordinate bounds input coordinates. Tree construction computes
// the bounding-cube half width (hi-lo)/2 and squared pair distances;
// magnitudes up to 1e150 keep both finite (4e300 < MaxFloat64), while
// larger values overflow the half width to Inf, collapse every Morton
// cell to NaN and poison the cached plan with NaN operators.
const maxCoordinate = 1e150

func checkCoordinates(name string, pts []float64) error {
	for i, v := range pts {
		if math.IsNaN(v) || v < -maxCoordinate || v > maxCoordinate {
			return badRequest("%s coordinate %d is %g, want finite values in [-%g, %g]",
				name, i, v, maxCoordinate, maxCoordinate)
		}
	}
	return nil
}

func checkOptionBounds(req PlanRequest) error {
	// Negative or non-finite values are malformed input (400); values
	// beyond the caps describe a plan the server refuses to build (413,
	// plan_too_large) — distinct codes so clients can tell a typo from
	// a capacity policy.
	if req.Degree < 0 {
		return badRequest("degree %d is negative", req.Degree)
	}
	if req.Degree > maxRequestDegree {
		return tooLarge("degree %d exceeds the limit %d", req.Degree, maxRequestDegree)
	}
	if req.MaxPoints < 0 {
		return badRequest("max_points %d is negative", req.MaxPoints)
	}
	if req.MaxPoints > maxRequestMaxPoints {
		return tooLarge("max_points %d exceeds the limit %d", req.MaxPoints, maxRequestMaxPoints)
	}
	if req.MaxDepth < 0 {
		return badRequest("max_depth %d is negative", req.MaxDepth)
	}
	if req.MaxDepth > maxRequestMaxDepth {
		return tooLarge("max_depth %d exceeds the limit %d", req.MaxDepth, maxRequestMaxDepth)
	}
	if math.IsNaN(req.PinvTol) || req.PinvTol < 0 || req.PinvTol >= 1 {
		return badRequest("pinv_tol %g outside [0, 1)", req.PinvTol)
	}
	return nil
}

// build constructs the evaluator (outside the service lock: tree and
// operator setup is the expensive amortized step). The plan stores the
// normalized kernel spec resolve derived — explicit parameters
// regardless of how the registering client spelled them — so the
// PlanInfo echo is independent of registration order.
func (s *Service) build(ctx context.Context, key string, src, trg []float64, opt kifmm.Options, spec kernels.Spec) (*plan, error) {
	start := time.Now()
	ev, err := kifmm.NewEvaluatorCtx(ctx, src, trg, opt)
	if err != nil {
		// Cancellation keeps its code; anything else the library
		// rejected is client input.
		return nil, errs.Typed(err, errs.CodeInvalidInput)
	}
	return &plan{
		id: key, ev: ev, spec: spec,
		srcCount: len(src) / 3, trgCount: len(trg) / 3,
		sourceDim: opt.Kernel.SourceDim(), targetDim: opt.Kernel.TargetDim(),
		buildNS: time.Since(start).Nanoseconds(),
	}, nil
}

// lookup resolves a plan id against the cache.
func (s *Service) lookup(planID string) (*plan, error) {
	s.mu.Lock()
	p, ok := s.cache.get(planID)
	s.mu.Unlock()
	if !ok {
		return nil, errs.Newf(errs.CodePlanNotFound, "service: plan not found: %q", planID)
	}
	return p, nil
}

// Evaluate is the one evaluation entry for registered plans: it runs the
// density vectors of dens against the plan in a single engine sweep (a
// lone vector is a batch of one; a batch amortizes tree traversal and
// near-field kernel evaluations and occupies one admission regardless of
// its size). ctx covers the wait for lane admission and the evaluation
// itself: a cancellation or deadline aborts the engine sweep within one
// pass and returns the typed error (ErrCanceled / ErrDeadlineExceeded).
//
// The result carries one potential vector per density, this call's stage
// breakdown and its span tree (wall-clock intervals per pass and tree
// level); the same tree is retained in the recent-evaluations ring.
func (s *Service) Evaluate(ctx context.Context, planID string, dens [][]float64) (EvaluateBatchResponse, error) {
	p, err := s.lookup(planID)
	if err != nil {
		return EvaluateBatchResponse{}, err
	}
	return s.evaluatePlan(ctx, p, dens)
}

// EvaluateOnce registers (or resolves) the plan and evaluates in one
// call; the plan stays cached for future requests. The evaluation runs
// against the plan returned by registration, so it cannot miss even if
// the plan is concurrently evicted from the cache.
//
// On a coordinator (Config.Cluster), cluster-sized requests fan out
// across the connected workers transparently: same request shape, same
// result shape, no plan id (nothing is cached — the distributed engine
// rebuilds its tree per evaluation, the paper's setting).
func (s *Service) EvaluateOnce(ctx context.Context, req OneShotRequest) (EvaluateBatchResponse, error) {
	dens := [][]float64{req.Densities}
	if s.clusterSized(req.PlanRequest) {
		return s.evaluateCluster(ctx, req.PlanRequest, dens)
	}
	p, _, err := s.register(ctx, req.PlanRequest)
	if err != nil {
		return EvaluateBatchResponse{}, err
	}
	return s.evaluatePlan(ctx, p, dens)
}

// checkDensities is the one density-shape validation: a non-empty batch
// within the size bound, every vector srcCount x sourceDim long.
func checkDensities(dens [][]float64, srcCount, sourceDim int) error {
	if len(dens) == 0 {
		return badRequest("batch needs at least one density vector")
	}
	if len(dens) > maxBatchSize {
		return tooLarge("batch of %d density vectors exceeds the limit %d", len(dens), maxBatchSize)
	}
	want := srcCount * sourceDim
	for q, den := range dens {
		if len(den) == want {
			continue
		}
		if len(dens) == 1 {
			return badRequest("densities length %d, want %d (%d sources x %d components)", len(den), want, srcCount, sourceDim)
		}
		return badRequest("densities[%d] length %d, want %d (%d sources x %d components)", q, len(den), want, srcCount, sourceDim)
	}
	return nil
}

// evaluatePlan runs one sweep on the local engine. Admission is lease
// acquisition: the engine leases the call's lane width from the service
// pool, queueing — and honoring ctx — when not even one lane
// is free (a caller that disconnects while queued never occupies a
// lane). Evaluation is read-only on plan state, so concurrent calls
// sharing a plan need no per-plan serialization.
func (s *Service) evaluatePlan(ctx context.Context, p *plan, dens [][]float64) (EvaluateBatchResponse, error) {
	if err := checkDensities(dens, p.srcCount, p.sourceDim); err != nil {
		return s.evalFailed(ctx, EvaluateBatchResponse{}, err, errs.CodeInvalidInput)
	}
	start := time.Now()
	pots, st, span, err := func() (pots [][]float64, st fmm.Stats, span *obs.Span, err error) {
		// A panic in the numeric evaluation path becomes a typed
		// internal error (the engine's lease is released by its own
		// defer even then).
		defer func() {
			if r := recover(); r != nil {
				err = errs.Newf(errs.CodeInternal, "service: evaluation panicked: %v", r)
			}
		}()
		return p.ev.EvaluateBatchTracedCtx(ctx, dens)
	}()
	// Anything the library rejected that carries no code is client input.
	res := EvaluateBatchResponse{PlanID: p.id, Potentials: pots, Stats: statsWire(st), Trace: span}
	return s.finishEval(ctx, start, res, st, p.trgCount, err, errs.CodeInvalidInput)
}

// evalFailed counts a failed evaluation, as cancelled (by the caller or a
// deadline) or as an error, types err with fallback when it carries no
// code of its own, and publishes the span tree the evaluation got as far
// as building (res.Trace, if any) under that code: the evaluations that
// need explaining most are in /v1/evals/recent like the rest. The
// response itself stays empty — an error carries no trace body.
func (s *Service) evalFailed(ctx context.Context, res EvaluateBatchResponse, err error, fallback errs.Code) (EvaluateBatchResponse, error) {
	if code, _ := errs.CodeOf(errs.FromContext(err)); code == errs.CodeCanceled || code == errs.CodeDeadlineExceeded {
		s.m.evalCanceled.Inc()
	} else {
		s.m.evalErrors.Inc()
	}
	err = errs.Typed(err, fallback)
	code, _ := errs.CodeOf(err)
	res.Trace.SetAttr("error_code", string(code))
	s.publish(ctx, res)
	return EvaluateBatchResponse{}, err
}

// finishEval is the tail every evaluation ends in, on the local engine or
// across the cluster: count a failure, or record the sweep; either way
// publish its span. Every evaluation is traced (a handful of small
// allocations per call): the finished tree lands in the
// recent-evaluations ring and is returned so the HTTP layer can echo it
// on ?trace=1.
func (s *Service) finishEval(ctx context.Context, start time.Time, res EvaluateBatchResponse, st fmm.Stats, points int, err error, fallback errs.Code) (EvaluateBatchResponse, error) {
	if err != nil {
		return s.evalFailed(ctx, res, err, fallback)
	}
	s.m.recordEval(st, len(res.Potentials), points, time.Since(start))
	s.publish(ctx, res)
	return res, nil
}

// publish adds an evaluation's span tree to the recent-evaluations ring.
// The tree is still private to this goroutine: the identifying attributes
// go on before the ring makes it shared. The trace attributes link the
// tree to the W3C trace context the request arrived under (or was
// assigned): the evaluate span's id, its parent (the caller's span, when
// a traceparent was sent), and the request id — the request-log ↔
// /v1/evals/recent join keys.
func (s *Service) publish(ctx context.Context, res EvaluateBatchResponse) {
	span := res.Trace
	if res.PlanID != "" {
		span.SetAttr("plan_id", res.PlanID)
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		span.SetAttr("trace_id", tc.TraceID)
		span.SetAttr("span_id", tc.SpanID)
	}
	if meta, ok := requestMetaFrom(ctx); ok {
		if meta.id != "" {
			span.SetAttr("request_id", meta.id)
		}
		if meta.parentSpan != "" {
			span.SetAttr("parent_span_id", meta.parentSpan)
		}
	}
	s.spans.Add(span)
}

// clusterSized reports whether a one-shot request should fan out
// across the cluster: a coordinator is configured, the geometry has at
// least ClusterMinPoints sources, and the targets default to the
// sources (the distributed engine evaluates at source points).
func (s *Service) clusterSized(req PlanRequest) bool {
	return s.cfg.Cluster != nil && len(req.Trg) == 0 &&
		len(req.Src)/3 >= s.cfg.ClusterMinPoints
}

// evaluateCluster runs one validated one-shot request through the
// cluster coordinator. Failures keep the errs taxonomy: a lost worker
// or an empty cluster surfaces as worker_lost (HTTP 503) while
// single-node plans keep serving — the degraded mode.
func (s *Service) evaluateCluster(ctx context.Context, req PlanRequest, dens [][]float64) (EvaluateBatchResponse, error) {
	// resolve reuses the single-node validation (coordinate and option
	// bounds); the plan key it computes is unused here.
	src, _, opt, spec, _, err := s.resolve(req)
	if err != nil {
		return EvaluateBatchResponse{}, err
	}
	srcCount := len(src) / 3
	if err := checkDensities(dens, srcCount, opt.Kernel.SourceDim()); err != nil {
		return s.evalFailed(ctx, EvaluateBatchResponse{}, err, errs.CodeInvalidInput)
	}
	span := obs.StartSpan("cluster_evaluate")
	pot, rep, err := s.cfg.Cluster.Evaluate(ctx, cluster.EvalRequest{
		Src: src, Den: dens[0], Kernel: spec,
		Degree: opt.Degree, MaxPoints: opt.MaxPoints, MaxDepth: opt.MaxDepth,
		Backend: int(opt.Backend), PinvTol: opt.PinvTol,
	})
	span.End()
	res := EvaluateBatchResponse{Trace: span}
	if err == nil {
		// The root carries the fan-out summary and adopts each rank's own
		// tree (rank > tree_build, assign_owners, iteration > the exchange
		// and pass spans): cluster ranks run on wall time, so the trees
		// nest under it as they are. The ranks' stage breakdown stays on
		// the workers: the stats are wall time and the lanes granted to the
		// ranks' engines, summed from each iteration span's granted_lanes.
		span.SetAttr("ranks", strconv.Itoa(rep.Ranks))
		span.SetAttr("workers", strconv.Itoa(rep.Workers))
		span.SetAttr("scatter_bytes", strconv.FormatInt(rep.ScatterBytes, 10))
		span.SetAttr("gather_bytes", strconv.FormatInt(rep.GatherBytes, 10))
		lanes := 0
		for _, rt := range rep.Timeline.Ranks {
			span.Children = append(span.Children, rt.Root)
			if it := rt.Root.Find("iteration"); it != nil {
				n, _ := strconv.Atoi(it.Attrs["granted_lanes"])
				lanes += n
			}
		}
		res.Potentials = [][]float64{pot}
		res.Stats = EvalStats{TotalNanos: span.Duration.Nanoseconds(), GrantedLanes: lanes}
	}
	return s.finishEval(ctx, span.Start, res, fmm.Stats{}, srcCount, err, errs.CodeInternal)
}

// Plans returns the number of live cached plans.
func (s *Service) Plans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// PlansBytes returns the summed estimated footprint of cached plans.
func (s *Service) PlansBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.totalBytes()
}
