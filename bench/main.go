// Command kifmm-bench is the repository benchmark: five workloads, the
// end-to-end metrics a caller sees (untraced) and the per-layer numbers
// of a traced run. BENCHMARK.json at the repository root records the
// contract; README.md in this directory explains every workload and
// metric.
//
//	bash bench/run.sh                                  every workload, untraced
//	bash bench/run.sh -trace 1                         every workload, traced
//	bash bench/run.sh -workload W -seed S -seconds T -trace 0|1
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// workload is one benchmark workload. generate is never timed; setup is
// the cold path from the first call into the repository to the first
// operation's result; measure is the untraced closed loop; trace repeats
// it with spans and fills the workload's own per-layer metrics.
type workload interface {
	generate(seed int64)
	setup(ctx context.Context) error
	accuracy() (float64, error)
	measure(ctx context.Context, d time.Duration) (measured, error)
	trace(ctx context.Context, d time.Duration, rec *recorder, layer map[string]float64) error
	shape() shape
	close()
}

// measured is what the untraced run of a workload collected.
type measured struct {
	ops       []float64 // seconds per main operation
	registers []float64 // seconds per plan preparation that had to build
	// registerP50 is the median the workload reports for them: the plain
	// median, except where two kinds of caller register (svc_session_mix).
	registerP50 float64
	points      float64 // target points x right-hand sides completed in the op phase
	opWall      time.Duration
	// allocBytes is the runtime.MemStats.TotalAlloc delta of the op phase.
	allocBytes        uint64
	attempted, failed int
}

// runOps runs op in a closed loop for d and records each call's wall
// time, the phase's wall time and its allocation delta. same compares a
// result with the first one, after the call's clock has stopped.
func runOps[T any](m *measured, d time.Duration, pointsPerOp int, op func() (T, error), same func(T) bool) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < d {
		t := time.Now()
		res, err := op()
		m.ops = append(m.ops, time.Since(t).Seconds())
		m.attempted++
		if err != nil || !same(res) {
			m.failed++
		}
	}
	m.opWall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.points = float64(len(m.ops) * pointsPerOp)
}

func newWorkload(name string, rec *recorder) workload {
	switch name {
	case "svc_session_mix":
		return &svcWorkload{rec: rec}
	case "cluster_oneshot":
		return &clusterWorkload{rec: rec}
	}
	if w := newLibWorkload(name); w != nil {
		return w
	}
	return nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	outDir     string
	setupChild bool
	layerChild bool
}

// benchLanes is the GOMAXPROCS every measuring process runs at: one core
// fewer than the machine has. On a shared guest the harness, the kernel
// and the host's neighbours take slices of some core all the time; a
// program that needs every core stalls on each slice (a two-rank pass
// waits at its next exchange), and ten runs of one commit then spread by
// 13-25%. With one core left free the same runs spread by 2-6%.
func benchLanes() int { return max(1, runtime.NumCPU()-1) }

func main() {
	runtime.GOMAXPROCS(benchLanes())
	var o options
	var compare, spec bool
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line (default: every workload, each in a fresh process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace and result files")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json")
	flag.BoolVar(&o.setupChild, "setup-child", false, "internal: time the cold set-up of -workload and exit")
	flag.BoolVar(&o.layerChild, "layer-child", false, "internal: time the cold operator construction of -workload and exit")
	flag.Parse()

	var err error
	switch {
	case spec:
		err = writeSpec(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare a.json b.json")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kifmm-bench:", err)
		os.Exit(1)
	}
}

// childTimeout bounds every child process, so a hung workload fails
// loudly instead of hanging the run.
const childTimeout = 120 * time.Second

// runChild re-executes this binary with extra flags and returns its last
// standard output (also when it failed). The child is waited for in
// every case.
func runChild(o options, extra ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-out", o.outDir,
	}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return out, fmt.Errorf("workload %s: child %v exceeded %s and was killed", o.workload, extra, childTimeout)
	}
	if err != nil {
		return out, fmt.Errorf("workload %s: child %v: %w", o.workload, extra, err)
	}
	return out, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\r\n")
	return out[bytes.LastIndexByte(out, '\n')+1:]
}

// coldSetupChildren is how many extra cold processes time the set-up;
// with the measuring process itself that makes five samples.
const coldSetupChildren = 4

func runOne(o options) error {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ctx := context.Background()
	var rec *recorder
	if o.trace != 0 {
		rec = &recorder{}
	}
	w := newWorkload(o.workload, rec)
	defer w.close()
	w.generate(o.seed)

	if o.layerChild {
		ts, err := measureTranslateSetup(ctx, w.shape())
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(ts)
	}
	if o.setupChild {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return err
		}
		fmt.Println(time.Since(start).Seconds())
		return nil
	}

	res := result{Metrics: map[string]metricValue{}}
	var digits float64
	var err error
	if o.trace == 0 {
		digits, err = runUntraced(ctx, o, w, &res)
	} else {
		digits, err = runTraced(ctx, o, w, rec, &res)
	}
	if err != nil {
		return err
	}

	res.Correct = res.Failed == 0 && res.Attempted > 0 && digits >= spec.FloorDigits
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if digits < spec.FloorDigits {
		return fmt.Errorf("%s: accuracy_digits %.3f is below the floor %.1f", o.workload, digits, spec.FloorDigits)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// setupAndCheck times this process's set-up and checks the first
// operation's result against direct summation.
func setupAndCheck(ctx context.Context, w workload) (setupS, digits float64, err error) {
	start := time.Now()
	if err := w.setup(ctx); err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	setupS = time.Since(start).Seconds()
	if digits, err = w.accuracy(); err != nil {
		return 0, 0, fmt.Errorf("accuracy check: %w", err)
	}
	return setupS, digits, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, o options, w workload, res *result) (digits float64, err error) {
	// The operator caches are process-global, so a cold set-up needs a
	// fresh process; the children run first, while this process is idle.
	var setups []float64
	for i := 0; i < coldSetupChildren; i++ {
		out, err := runChild(o, "-setup-child")
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseFloat(string(lastLine(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child printed %q: %w", lastLine(out), err)
		}
		setups = append(setups, v)
	}
	own, digits, err := setupAndCheck(ctx, w)
	if err != nil {
		return 0, err
	}
	setups = append(setups, own)
	m, err := w.measure(ctx, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return 0, fmt.Errorf("measure: %w", err)
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	values := map[string]float64{
		"setup_s":         median(setups),
		"op_p50_s":        median(m.ops),
		"pts_per_s":       m.points / m.opWall.Seconds(),
		"register_p50_s":  m.registerP50,
		"accuracy_digits": digits,
		"alloc_mb_per_op": float64(m.allocBytes) / 1e6 / float64(max(len(m.ops), 1)),
	}
	fmt.Printf("%s seed %d: %d main operations, %d registrations that built, %d set-ups %v\n",
		o.workload, o.seed, len(m.ops), len(m.registers), len(setups), setups)
	for _, ms := range endToEnd {
		res.Metrics[ms.Name] = metricValue{values[ms.Name], ms.Unit}
		fmt.Printf("  %-18s %14.6g %s\n", ms.Name, values[ms.Name], ms.Unit)
	}
	fmt.Printf("  %-18s %14.6g s (for the reader; the contract metric is run.op_p90_s of the traced run)\n", "op_p90_s", percentile(m.ops, 0.9))
	fmt.Printf("  %-18s %14d of %d attempted\n", "failed", m.failed, m.attempted)
	return digits, nil
}

// runTraced records spans and measures the per-layer metrics.
func runTraced(ctx context.Context, o options, w workload, rec *recorder, res *result) (digits float64, err error) {
	if _, digits, err = setupAndCheck(ctx, w); err != nil {
		return 0, err
	}
	layer := map[string]float64{}
	// Fewer operations than the untraced run: a third of the time in the
	// workload's own loop, the rest for the layer measurements.
	if err := w.trace(ctx, time.Duration(o.seconds)*time.Second/3, rec, layer); err != nil {
		return 0, fmt.Errorf("traced run: %w", err)
	}
	if err := measureSharedLayers(ctx, w.shape(), layer); err != nil {
		return 0, fmt.Errorf("layer measurements: %w", err)
	}
	out, err := runChild(o, "-layer-child")
	if err != nil {
		return 0, err
	}
	var ts translateSetup
	if err := json.Unmarshal(lastLine(out), &ts); err != nil {
		return 0, fmt.Errorf("layer child printed %q: %w", lastLine(out), err)
	}
	layer["translate.dense_ops_setup_s"] = ts.DenseOpsSetupS
	layer["translate.m2l_setup_s"] = ts.M2LSetupS
	layer["translate.cached_mb"] = ts.CachedMB
	layer["run.peak_rss_mb"] = peakRSSMB()
	tracePath := filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := rec.writeChrome(tracePath); err != nil {
		return 0, fmt.Errorf("writing trace: %w", err)
	}
	res.Attempted = len(rec.byParent(-1))
	fmt.Printf("%s seed %d traced: %d spans in %s\n", o.workload, o.seed, len(rec.spans), tracePath)
	for _, ms := range perLayer {
		res.Metrics[ms.Name] = metricValue{layer[ms.Name], ms.Unit}
		fmt.Printf("  %-42s %14.6g %s\n", ms.Name, layer[ms.Name], ms.Unit)
	}
	return digits, nil
}

// runRecord describes the machine and build a result file came from.
type runRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// resultFile is what running every workload writes and -compare reads.
type resultFile struct {
	Run       runRecord          `json:"run"`
	Workloads map[string]result  `json:"workloads"`
	WallS     map[string]float64 `json:"wall_s"`
}

// runAll runs every workload in its own child process, prints one table
// and writes the result file.
func runAll(o options) error {
	file := resultFile{
		Run: runRecord{
			CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), GitSHA: gitSHA(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		},
		Workloads: map[string]result{},
		WallS:     map[string]float64{},
	}
	fmt.Printf("machine: %s, %d cpus, GOMAXPROCS %d, %s, git %s, seed %d\n",
		file.Run.CPU, file.Run.NProc, file.Run.GOMAXPROCS, file.Run.Go, file.Run.GitSHA, o.seed)
	var failed []string
	for _, spec := range workloads {
		child := o
		child.workload = spec.Name
		start := time.Now()
		out, err := runChild(child)
		wall := time.Since(start).Seconds()
		file.WallS[spec.Name] = wall
		os.Stdout.Write(out)
		fmt.Printf("  wall %.1f s\n\n", wall)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kifmm-bench:", err)
			failed = append(failed, spec.Name)
			continue
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("%s printed no result line: %w", spec.Name, err)
		}
		file.Workloads[spec.Name] = res
	}
	name := "results.json"
	if o.trace != 0 {
		name = "results-trace.json"
	}
	path := filepath.Join(o.outDir, name)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
