package main

import (
	"encoding/json"
	"io"
)

// runSeconds is how long one run measures unless -seconds says otherwise;
// BENCHMARK.json records the same number as run_seconds.
const runSeconds = 10

// metricSpec is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec is one workload: its name, the one-line reason it exists
// and the accuracy floor its first result must meet.
type workloadSpec struct {
	Name string
	Why  string
	// FloorDigits is the workload's first measured accuracy_digits minus
	// 0.3; a run below it exits non-zero.
	FloorDigits float64
}

var workloads = []workloadSpec{
	{"lib_uniform_fft", "uniform points, shallow full tree: the FFT M2L far field (DownV) dominates, direct near field is a small share", 5.8},
	{"lib_adaptive_direct", "eight corner clusters, depth-22 adaptive tree: direct U/W/X kernel work and the lists dominate, the FFT far field is a minority", 4.5},
	{"lib_stokes_batch", "3x3 Stokes kernel in rhs-major batches of 4: operator precompute dwarfs the tree build, so set-up cost shows here", 2.7},
	{"svc_session_mix", "two HTTP clients (JSON and frame) registering and evaluating small plans: codec, plan key, cache and lane leasing are a large share", 6.0},
	{"cluster_oneshot", "one-shot evaluations fanned out to two TCP workers: the only workload that runs cluster, parfmm and mpi", 5.6},
}

// endToEnd are the metrics a caller of the system sees; every workload
// reports every one of them from the untraced run. Two metrics of the
// issue are not here. failed_share is the failed/attempted pair of the
// result line: a metric that reads 0 on every healthy run cannot carry a
// relative bound. op_p90_s is run.op_p90_s of the traced run: the lib and
// cluster workloads collect 30-70 operations per run, too few for a 90th
// percentile (its spread over ten runs reached 33% on this machine), and
// the contract has every workload report every end-to-end metric.
//
// The timing bounds are the contract's maximum because the machine the
// numbers were read on is a shared 2-vCPU guest. With one core left free
// (benchLanes) ten runs of one commit spread by 2-6% on the timings, a
// quarter of the bound; on both cores they spread by 13-25%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"pts_per_s", "1/s", "higher", 0.25},
	{"register_p50_s", "s", "lower", 0.25},
	{"accuracy_digits", "digits", "higher", 0.05},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
}

// perLayer are the single-layer numbers of the traced run, named
// <package>.<what>. A metric that does not apply to a workload (cluster
// traffic on a library workload) reads 0 there.
var perLayer = []metricSpec{
	{Name: "tree.build_s", Unit: "s", Better: "lower"},
	{Name: "tree.boxes", Unit: "count", Better: "lower"},
	{Name: "tree.depth", Unit: "count", Better: "lower"},
	{Name: "tree.leaves", Unit: "count", Better: "lower"},
	{Name: "tree.list_u_entries", Unit: "count", Better: "lower"},
	{Name: "tree.list_v_entries", Unit: "count", Better: "lower"},
	{Name: "tree.list_w_entries", Unit: "count", Better: "lower"},
	{Name: "tree.list_x_entries", Unit: "count", Better: "lower"},

	{Name: "translate.dense_ops_setup_s", Unit: "s", Better: "lower"},
	{Name: "translate.m2l_setup_s", Unit: "s", Better: "lower"},
	{Name: "translate.cached_mb", Unit: "MB", Better: "lower"},
	{Name: "translate.m2l_accumulate_ns_per_pair_nq1", Unit: "ns", Better: "lower"},
	{Name: "translate.m2l_accumulate_ns_per_pair_nq4", Unit: "ns", Better: "lower"},
	{Name: "translate.m2l_forward_ns_per_box", Unit: "ns", Better: "lower"},
	{Name: "translate.m2l_extract_ns_per_box", Unit: "ns", Better: "lower"},

	{Name: "fft.plan3r_forward_ns", Unit: "ns", Better: "lower"},
	{Name: "fft.plan3r_inverse_ns", Unit: "ns", Better: "lower"},

	{Name: "kernels.p2p_ns_per_pair", Unit: "ns", Better: "lower"},

	{Name: "fmm.up_s", Unit: "s", Better: "lower"},
	{Name: "fmm.down_u_s", Unit: "s", Better: "lower"},
	{Name: "fmm.down_v_s", Unit: "s", Better: "lower"},
	{Name: "fmm.down_w_s", Unit: "s", Better: "lower"},
	{Name: "fmm.down_x_s", Unit: "s", Better: "lower"},
	{Name: "fmm.eval_s", Unit: "s", Better: "lower"},
	{Name: "fmm.pass_permute_wall_s", Unit: "s", Better: "lower"},
	{Name: "fmm.pass_up_wall_s", Unit: "s", Better: "lower"},
	{Name: "fmm.pass_down_wall_s", Unit: "s", Better: "lower"},
	{Name: "fmm.pass_leaf_wall_s", Unit: "s", Better: "lower"},
	{Name: "fmm.flops_per_op", Unit: "count", Better: "lower"},
	{Name: "fmm.gflops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fmm.lane_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "fmm.build_s", Unit: "s", Better: "lower"},
	{Name: "fmm.first_eval_extra_s", Unit: "s", Better: "lower"},
	{Name: "fmm.plan_footprint_mb", Unit: "MB", Better: "lower"},
	{Name: "fmm.batch_amortization", Unit: "ratio", Better: "higher"},

	{Name: "exec.lane_speedup", Unit: "ratio", Better: "higher"},
	{Name: "exec.granted_lanes_mean", Unit: "count", Better: "higher"},
	{Name: "exec.lease_wait_mean_s", Unit: "s", Better: "lower"},

	{Name: "wire.frame_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.json_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.json_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.frame_bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "wire.json_bytes_per_point", Unit: "B", Better: "lower"},

	{Name: "client.evaluate_overhead_json_s", Unit: "s", Better: "lower"},
	{Name: "client.evaluate_overhead_frame_s", Unit: "s", Better: "lower"},
	{Name: "client.request_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "client.response_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},

	{Name: "service.handler_self_s", Unit: "s", Better: "lower"},
	{Name: "service.register_hit_s", Unit: "s", Better: "lower"},
	{Name: "service.register_miss_s", Unit: "s", Better: "lower"},
	{Name: "service.plan_key_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "service.plan_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.plan_cache_evictions", Unit: "count", Better: "lower"},

	{Name: "cluster.coordinator_wall_s", Unit: "s", Better: "lower"},
	{Name: "cluster.scatter_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cluster.gather_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cluster.mesh_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cluster.mesh_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.critical_path_s", Unit: "s", Better: "lower"},
	{Name: "cluster.vs_local_ratio", Unit: "ratio", Better: "lower"},
	{Name: "parfmm.rank_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "parfmm.rank_compute_max_s", Unit: "s", Better: "lower"},

	{Name: "run.op_p90_s", Unit: "s", Better: "lower"},
	{Name: "run.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "run.peak_rss_mb", Unit: "MB", Better: "lower"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// writeSpec prints BENCHMARK.json from the tables above, so the file and
// the program cannot name different metrics.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	spec := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []e2e        `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
