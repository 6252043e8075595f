package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// TrajectorySchema identifies the on-disk format of BENCH_trajectory.json.
// Bump it on incompatible entry changes so downstream tooling can reject
// files it does not understand.
const TrajectorySchema = "kifmm-bench-trajectory/v1"

// TrajectoryEntry is one benchmark sample: a fixed-shape evaluation run
// at a known commit, so a series of entries tracks performance across
// the repository's history.
type TrajectoryEntry struct {
	// GitSHA is the short commit hash the sample was taken at
	// ("unknown" outside a git checkout).
	GitSHA string `json:"git_sha"`
	// Date is the sample time in RFC 3339 UTC.
	Date string `json:"date"`
	// Label is a free-form tag (-label flag), e.g. "ci" or "pr6".
	Label string `json:"label,omitempty"`
	// N, Kernel, Degree, Backend and Iterations pin the workload shape.
	N          int    `json:"n"`
	Kernel     string `json:"kernel"`
	Degree     int    `json:"degree"`
	Backend    string `json:"backend"`
	Iterations int    `json:"iterations"`
	// SetupMS is the plan construction time (octree + operators).
	SetupMS float64 `json:"setup_ms"`
	// WallMS is the mean wall-clock time of one warm evaluation.
	WallMS float64 `json:"wall_ms"`
	// StageMS breaks the mean evaluation into the paper's stages
	// (up, down_u, down_v, down_w, down_x, eval); values are compute
	// time summed across lanes, so they exceed wall when lanes > 1.
	StageMS map[string]float64 `json:"stage_ms"`
	// Flops counts floating-point operations of one evaluation.
	Flops int64 `json:"flops"`
	// GrantedLanes is the worker-lane width the timed evaluations ran at.
	GrantedLanes int `json:"granted_lanes"`
	// NsPerPoint is WallMS normalized per target point.
	NsPerPoint float64 `json:"ns_per_point"`
	// Ranks, CommBytes, CommMsgs and CriticalPathMS describe distributed
	// (parfmm) samples: simulated rank count, point-to-point traffic of
	// the run, and the merged timeline's critical-path duration. Absent
	// (zero) for single-process samples.
	Ranks          int     `json:"ranks,omitempty"`
	CommBytes      int64   `json:"comm_bytes,omitempty"`
	CommMsgs       int64   `json:"comm_msgs,omitempty"`
	CriticalPathMS float64 `json:"critical_path_ms,omitempty"`
}

// trajectoryFile is the JSON shape of BENCH_trajectory.json: a schema
// marker plus append-only entries, oldest first.
type trajectoryFile[E any] struct {
	Schema  string `json:"schema"`
	Entries []E    `json:"entries"`
}

// TrajectoryFile is the trajectory as this build reads it. An entry may
// carry fields a later or earlier build wrote and this one does not
// declare (the pr10 sample's wire_* codec figures); they are ignored here
// and kept on append.
type TrajectoryFile = trajectoryFile[TrajectoryEntry]

// TrajectoryConfig shapes one trajectory sample. The zero value runs
// the default workload (N=10000 uniform points, Laplace, degree 6, FFT
// M2L, 3 iterations).
type TrajectoryConfig struct {
	N          int
	Degree     int
	Iterations int
	Label      string
	Seed       int64
}

func (c *TrajectoryConfig) defaults() {
	if c.N <= 0 {
		c.N = 10000
	}
	if c.Degree <= 0 {
		c.Degree = 6
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunTrajectoryPoint executes the fixed benchmark workload and returns
// the sample: build a plan over uniform points, warm it once (operators
// are built lazily on first use), then average Iterations timed
// evaluations.
func RunTrajectoryPoint(ctx context.Context, cfg TrajectoryConfig) (TrajectoryEntry, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := geom.Flatten(geom.UniformCube(rng, cfg.N))
	den := geom.RandomDensities(rng, cfg.N, 1)

	buildStart := time.Now()
	ev, err := fmm.NewCtx(ctx, pts, pts, fmm.Options{
		Kernel: kernels.Laplace{}, Degree: cfg.Degree, Backend: fmm.M2LFFT,
	})
	if err != nil {
		return TrajectoryEntry{}, fmt.Errorf("trajectory: build: %w", err)
	}
	defer ev.Close()
	setup := time.Since(buildStart)

	// Warm run: first evaluation pays lazy operator construction.
	dens := [][]float64{den}
	if _, _, err := ev.Evaluate(ctx, dens, nil, nil); err != nil {
		return TrajectoryEntry{}, fmt.Errorf("trajectory: warm evaluation: %w", err)
	}

	e := TrajectoryEntry{
		GitSHA:     GitSHA(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Label:      cfg.Label,
		N:          cfg.N,
		Kernel:     kernels.Laplace{}.Name(),
		Degree:     cfg.Degree,
		Backend:    "fft",
		Iterations: cfg.Iterations,
		SetupMS:    ms(setup),
		StageMS:    make(map[string]float64, 6),
	}
	var wall time.Duration
	stages := make(map[string]time.Duration, 6)
	for i := 0; i < cfg.Iterations; i++ {
		start := time.Now()
		_, st, err := ev.Evaluate(ctx, dens, nil, nil)
		if err != nil {
			return TrajectoryEntry{}, fmt.Errorf("trajectory: evaluation %d: %w", i, err)
		}
		wall += time.Since(start)
		stages["up"] += st.Up
		stages["down_u"] += st.DownU
		stages["down_v"] += st.DownV
		stages["down_w"] += st.DownW
		stages["down_x"] += st.DownX
		stages["eval"] += st.Eval
		e.Flops = st.Flops()
		e.GrantedLanes = st.Lanes
	}
	iters := time.Duration(cfg.Iterations)
	e.WallMS = ms(wall / iters)
	for name, d := range stages {
		e.StageMS[name] = ms(d / iters)
	}
	e.NsPerPoint = float64((wall / iters).Nanoseconds()) / float64(cfg.N)
	return e, nil
}

// AppendTrajectory loads the trajectory file at path (tolerating a
// missing file), appends entry, and writes it back. Entries already on
// file are carried as raw JSON, so they keep every field they were
// written with. The write is atomic (temp file + rename) so a crash
// cannot truncate history.
func AppendTrajectory(path string, entry TrajectoryEntry) error {
	f, err := loadTrajectory[json.RawMessage](path)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("trajectory: encode entry: %w", err)
	}
	f.Entries = append(f.Entries, raw)

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("trajectory: encode %s: %w", path, err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("trajectory: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trajectory: rename %s: %w", path, err)
	}
	return nil
}

// LoadTrajectory reads the trajectory file at path. A missing file is
// not an error: it returns an empty file ready to append to. A present
// file with a different schema is rejected rather than silently mixed.
func LoadTrajectory(path string) (TrajectoryFile, error) {
	return loadTrajectory[TrajectoryEntry](path)
}

func loadTrajectory[E any](path string) (trajectoryFile[E], error) {
	f := trajectoryFile[E]{Schema: TrajectorySchema}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, fmt.Errorf("trajectory: read %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("trajectory: parse %s: %w", path, err)
	}
	if f.Schema != TrajectorySchema {
		return f, fmt.Errorf("trajectory: %s has schema %q, want %q", path, f.Schema, TrajectorySchema)
	}
	return f, nil
}

// GitSHA returns the short commit hash of the working tree, or
// "unknown" when git is unavailable (e.g. a release tarball).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if sha == "" {
		return "unknown"
	}
	return sha
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
