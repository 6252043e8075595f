package service

import (
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fmm"
	"repro/internal/obs"
)

// stageNames are the label values of kifmm_stage_seconds, matching the
// fmm.Stats stages the paper charts (Up, DownU, DownV, DownW, DownX,
// Eval).
var stageNames = []string{"up", "down_u", "down_v", "down_w", "down_x", "eval"}

// metrics is the service's single source of observability truth: every
// counter, gauge and histogram is an obs instrument of one registry, and
// GET /metrics (Prometheus text) is its one rendering.
type metrics struct {
	reg *obs.Registry

	// Plan cache and builds.
	cacheHits, cacheMisses *obs.Counter
	plansBuilt, evictions  *obs.Counter
	coalesced              *obs.Counter
	planBuildSeconds       *obs.Histogram

	// Evaluations. evaluations counts right-hand sides; evalBatches
	// counts engine sweeps.
	evaluations, evalBatches *obs.Counter
	evalErrors, evalCanceled *obs.Counter
	evalSlow                 *obs.Counter
	evalBatchSize            *obs.Histogram
	evalSeconds              *obs.Histogram
	evalNsPerPoint           *obs.Gauge
	stageSeconds             *obs.HistogramVec
	flops                    *obs.Counter

	// Elastic pool.
	grantedWidth     *obs.CounterVec
	leaseWaitSeconds *obs.Histogram

	// HTTP layer (fed by the Server middleware).
	httpRequests       *obs.CounterVec
	httpRequestSeconds *obs.HistogramVec
	httpRequestBytes   *obs.Counter
	httpResponseBytes  *obs.Counter
	wireEncoding       *obs.CounterVec

	// Cluster fan-out (zero-valued when the service runs single-node).
	clusterPassWireSeconds *obs.HistogramVec
}

// newMetrics builds the registry and registers every instrument. The
// pool-backed gauges read the Service's live state through closures, so
// a scrape needs no extra bookkeeping.
func newMetrics(s *Service) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}

	m.cacheHits = r.Counter("kifmm_plan_cache_hits_total",
		"Plan registrations resolved from the cache.")
	m.cacheMisses = r.Counter("kifmm_plan_cache_misses_total",
		"Plan registrations that started a fresh build.")
	m.plansBuilt = r.Counter("kifmm_plans_built_total",
		"Plans constructed (octree + operator setup).")
	m.evictions = r.Counter("kifmm_plan_cache_evictions_total",
		"Plans evicted from the cache (LRU or byte bound).")
	m.coalesced = r.Counter("kifmm_plan_builds_coalesced_total",
		"Registrations coalesced onto a concurrent build of the same key.")
	m.planBuildSeconds = r.Histogram("kifmm_plan_build_seconds",
		"Plan construction time in seconds.",
		obs.ExpBuckets(0.01, 4, 8))
	r.GaugeFunc("kifmm_plans_live",
		"Plans currently cached.",
		func() float64 { return float64(s.Plans()) })
	r.GaugeFunc("kifmm_plan_cache_bytes",
		"Summed estimated footprint of cached plans in bytes.",
		func() float64 { return float64(s.PlansBytes()) })

	m.evaluations = r.Counter("kifmm_evaluations_total",
		"Density vectors evaluated (a batch of k counts k).")
	m.evalBatches = r.Counter("kifmm_eval_batches_total",
		"Evaluation sweeps run (a batch counts 1).")
	m.evalErrors = r.Counter("kifmm_eval_errors_total",
		"Evaluations failed for reasons other than cancellation.")
	m.evalCanceled = r.Counter("kifmm_eval_canceled_total",
		"Evaluations aborted by caller cancellation or deadline.")
	m.evalSlow = r.Counter("kifmm_eval_slow_total",
		"Requests at or above the slow-eval threshold (-slow-eval).")
	m.evalBatchSize = r.Histogram("kifmm_eval_batch_size",
		"Right-hand sides per evaluation sweep.",
		obs.ExpBuckets(1, 2, 9))
	m.evalSeconds = r.Histogram("kifmm_eval_seconds",
		"Wall-clock seconds per evaluation sweep.",
		obs.ExpBuckets(0.001, 4, 10))
	m.evalNsPerPoint = r.Gauge("kifmm_eval_ns_per_point",
		"Last sweep's wall nanoseconds per target point per right-hand side.")
	m.stageSeconds = r.HistogramVec("kifmm_stage_seconds",
		"Per-sweep compute seconds by FMM stage, summed across lanes.",
		obs.ExpBuckets(0.0001, 4, 10), "stage")
	m.flops = r.Counter("kifmm_flops_total",
		"Floating-point operations executed by evaluation sweeps.")

	r.GaugeFunc("kifmm_max_lanes",
		"Lane capacity of the elastic pool (-max-workers).",
		func() float64 { return float64(s.pool.MaxWorkers()) })
	r.GaugeFunc("kifmm_lanes_in_use",
		"Lanes currently leased by evaluations and plan builds.",
		func() float64 { return float64(s.pool.LanesInUse()) })
	r.CounterFunc("kifmm_lanes_granted_total",
		"Lanes handed out at admission, cumulative.",
		func() float64 { return float64(s.pool.LanesGranted()) })
	r.CounterFunc("kifmm_leases_granted_total",
		"Pool admissions, cumulative.",
		func() float64 { return float64(s.pool.LeasesGranted()) })
	m.grantedWidth = r.CounterVec("kifmm_granted_width_total",
		"Evaluations admitted at each lane width.", "width")
	m.leaseWaitSeconds = r.Histogram("kifmm_lease_wait_seconds",
		"Seconds callers queued for pool admission.",
		obs.ExpBuckets(0.0001, 10, 6))

	m.httpRequests = r.CounterVec("kifmm_http_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	m.httpRequestSeconds = r.HistogramVec("kifmm_http_request_seconds",
		"HTTP request duration in seconds by route.",
		obs.ExpBuckets(0.001, 4, 10), "route")
	m.httpRequestBytes = r.Counter("kifmm_http_request_bytes_total",
		"Request body bytes read by API handlers.")
	m.httpResponseBytes = r.Counter("kifmm_http_response_bytes_total",
		"Response body bytes written by API handlers.")
	m.wireEncoding = r.CounterVec("kifmm_wire_encoding_total",
		"Bulk request/response bodies by negotiated encoding (json or frame).", "encoding")

	// Build identity: the conventional constant-1 gauge whose labels
	// carry the interesting values, joinable against any other series.
	r.GaugeVec("kifmm_build_info",
		"Build identity (constant 1); labels carry the git revision and Go toolchain.",
		"revision", "go_version").
		With(buildinfo.Revision(), buildinfo.GoVersion()).Set(1)

	// Cluster families are always registered — a single-node service
	// reports zeros — so dashboards and the catalog test see one stable
	// metric surface regardless of deployment shape. The closures are
	// nil-safe: they read s.cfg.Cluster at scrape time.
	r.GaugeFunc("kifmm_cluster_workers",
		"Cluster workers currently connected to this coordinator.",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return float64(c.Workers())
			}
			return 0
		})
	r.GaugeFunc("kifmm_cluster_heartbeat_age_seconds",
		"Oldest worker heartbeat age in seconds (0 with no workers).",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return c.MaxHeartbeatAge().Seconds()
			}
			return 0
		})
	r.CounterFunc("kifmm_cluster_scatter_bytes_total",
		"Bytes scattered to workers (job geometry + densities).",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return float64(c.ScatterBytes())
			}
			return 0
		})
	r.CounterFunc("kifmm_cluster_gather_bytes_total",
		"Bytes gathered from workers (per-rank potentials + timelines).",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return float64(c.GatherBytes())
			}
			return 0
		})
	r.CounterFunc("kifmm_cluster_evals_total",
		"Evaluations fanned out across the cluster.",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return float64(c.Evals())
			}
			return 0
		})
	r.CounterFunc("kifmm_cluster_workers_lost_total",
		"Workers dropped for missed heartbeats or dead connections (graceful drains excluded).",
		func() float64 {
			if c := s.cfg.Cluster; c != nil {
				return float64(c.WorkersLost())
			}
			return 0
		})
	m.clusterPassWireSeconds = r.HistogramVec("kifmm_cluster_pass_wire_seconds",
		"Per-evaluation wall seconds spent in each distributed communication pass.",
		obs.ExpBuckets(0.0001, 4, 10), "pass")
	if c := s.cfg.Cluster; c != nil {
		c.SetPassObserver(func(pass string, seconds float64) {
			m.clusterPassWireSeconds.With(pass).Observe(seconds)
		})
	}

	return m
}

// recordEval records one finished sweep: rhs right-hand sides over
// points targets, taking wall seconds end to end, with the engine's
// per-stage breakdown st — zero (no granted lanes) for a cluster
// evaluation, whose ranks keep theirs. Called only for successful
// evaluations (the error/cancel counters are bumped at the failure site).
func (m *metrics) recordEval(st fmm.Stats, rhs, points int, wall time.Duration) {
	m.evaluations.Add(int64(rhs))
	m.evalBatches.Inc()
	m.evalBatchSize.Observe(float64(rhs))
	m.evalSeconds.Observe(wall.Seconds())
	if n := rhs * points; n > 0 {
		m.evalNsPerPoint.Set(float64(wall.Nanoseconds()) / float64(n))
	}
	if st.Lanes < 1 {
		return
	}
	m.grantedWidth.With(strconv.Itoa(st.Lanes)).Inc()
	durs := [...]time.Duration{st.Up, st.DownU, st.DownV, st.DownW, st.DownX, st.Eval}
	for i, name := range stageNames {
		m.stageSeconds.With(name).Observe(durs[i].Seconds())
	}
	m.flops.Add(st.Flops())
}
