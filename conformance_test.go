package kifmm

// The conformance suite is the randomized oracle lock on the whole
// library: seeded-random plans swept across kernel x distribution x
// degree x depth x workers x batch-size, every potential cross-checked
// against the O(N²) direct summation (internal/direct) to the degree's
// expected accuracy, plus the bitwise-determinism guarantees the
// elastic scheduler must preserve — identical results across granted
// widths {1, 2, max} and across a mid-run lane revocation. Scheduling
// changes are exactly where determinism and correctness bugs hide;
// anything that breaks either fails here before it ships.
//
// CI runs `go test -run Conformance -short` as a dedicated job; the
// full sweep runs with the normal test suite.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fmm"
)

// conformanceTol is the expected relative accuracy of a degree-p
// equivalent surface (the paper's Table 4.1 regime, with headroom for
// clustered distributions and the small point sets used here). Tensor
// kernels (Stokes, Kelvin) converge visibly slower in p than the
// scalar ones, so they get a looser bound at low degree.
func conformanceTol(k Kernel, degree int) float64 {
	tensor := k.SourceDim() > 1
	switch {
	case degree <= 4 && tensor:
		return 2e-1
	case degree <= 4:
		return 2e-2
	case degree <= 6 && tensor:
		return 1e-2
	case degree <= 6:
		return 5e-3
	default:
		return 1e-4
	}
}

// conformanceCase is one randomized plan configuration.
type conformanceCase struct {
	name     string
	kernel   Kernel
	pts      []float64
	degree   int
	maxPts   int
	maxDepth int
	workers  int
	batch    int
}

// drawConformanceCases derives the sweep from a seeded generator: same
// seed, same plans, so a failure reproduces by name.
func drawConformanceCases(seed int64, iters int) []conformanceCase {
	rng := rand.New(rand.NewSource(seed))
	kernels := []struct {
		name string
		k    Kernel
	}{
		{"laplace", Laplace()},
		{"modlaplace", ModLaplace(1.5)},
		{"stokes", Stokes(1)},
		{"kelvin", Kelvin(1, 0.3)},
	}
	distributions := []string{"uniform", "corner", "sphere"}
	var cases []conformanceCase
	for i := 0; i < iters; i++ {
		k := kernels[rng.Intn(len(kernels))]
		dist := distributions[rng.Intn(len(distributions))]
		n := 300 + rng.Intn(400)
		var pts []float64
		switch dist {
		case "uniform":
			pts = FlattenPatches(UniformPatches(rng.Int63(), n))
		case "corner":
			pts = FlattenPatches(CornerPatches(rng.Int63(), n, 0.3))
		case "sphere":
			pts = FlattenPatches(SpherePatches(rng.Int63(), n, 3, 0.2))
		}
		degree := 4
		if rng.Intn(3) == 0 {
			degree = 6
		}
		// Degree-6 tensor-kernel operator construction costs ~10s of
		// SVDs; keep the seeded draw stable but trim it under -short
		// (the race job's budget).
		if testing.Short() && degree == 6 && k.k.SourceDim() > 1 {
			degree = 4
		}
		maxDepth := 0 // uncapped
		if rng.Intn(3) == 0 {
			maxDepth = 2 + rng.Intn(2) // shallow trees skip/stress the downward pass
		}
		// The retired M2L-backend draw keeps every later field of every
		// case as drawn, and its -b segment keeps every case's name.
		b := 0
		if rng.Intn(3) == 0 {
			b = 1
		}
		c := conformanceCase{
			kernel: k.k, pts: pts,
			degree: degree, maxPts: 15 + rng.Intn(40), maxDepth: maxDepth,
			workers: 1 + rng.Intn(4),
			batch:   1 + rng.Intn(3),
		}
		c.name = fmt.Sprintf("%02d-%s-%s-n%d-d%d-s%d-depth%d-b%d-w%d-rhs%d",
			i, k.name, dist, n, c.degree, c.maxPts, c.maxDepth, b, c.workers, c.batch)
		cases = append(cases, c)
	}
	return cases
}

// evaluate builds the case's plan on pool and evaluates its seeded batch,
// returning the densities, the potentials and the call's own Stats.
func (c conformanceCase) evaluate(t *testing.T, pool *Pool) (dens, pots [][]float64, st fmm.Stats) {
	t.Helper()
	ev, err := NewEvaluatorCtx(context.Background(), c.pts, c.pts, Options{
		Kernel: c.kernel, Degree: c.degree, MaxPoints: c.maxPts,
		MaxDepth: c.maxDepth, Workers: c.workers, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	dens = make([][]float64, c.batch)
	for q := range dens {
		dens[q] = RandomDensities(int64(100+q), len(c.pts)/3, c.kernel.SourceDim())
	}
	pots, st, _, err = ev.EvaluateBatchTracedCtx(context.Background(), dens)
	if err != nil {
		t.Fatal(err)
	}
	return dens, pots, st
}

// TestConformanceRandomizedVsDirect: every FMM potential in the seeded
// sweep must match direct summation to the degree's expected accuracy,
// on every vector of the batch.
func TestConformanceRandomizedVsDirect(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	pool := NewPool(4)
	for _, c := range drawConformanceCases(7001, iters) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dens, pots, _ := c.evaluate(t, pool)
			tol := conformanceTol(c.kernel, c.degree)
			for q := range dens {
				want, err := Direct(c.kernel, c.pts, c.pts, dens[q])
				if err != nil {
					t.Fatal(err)
				}
				if e := rel(pots[q], want); e > tol {
					t.Errorf("rhs %d: relative error %.3e > %.0e vs direct summation", q, e, tol)
				}
			}
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/conformance.golden from this build's results")

const conformanceGoldenPath = "testdata/conformance.golden"

// TestConformanceGolden pins the bits: testdata/conformance.golden maps
// each drawConformanceCases(7001, 12) case to the sha256 of its batch
// result (every potential's float64 bits, little-endian, in order), its
// flop count, its WDirect / XDirect counts and its relative error against
// direct summation (the worst vector of the batch, three significant
// digits). A PR that declares itself bit-preserving leaves the file
// alone; one that re-associates or approximates rewrites it with
// `go test -run ConformanceGolden -update .` and says so in CHANGES.md,
// where the err column shows how little (or how much) the results moved.
// The file is pinned on amd64: the Go compiler fuses multiply-adds on
// arm64, ppc64le and s390x and not there.
func TestConformanceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("conformance golden is pinned on amd64 (no fused multiply-add); this is %s", runtime.GOARCH)
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	cases := drawConformanceCases(7001, iters)
	line := func(t *testing.T, c conformanceCase) string {
		dens, pots, st := c.evaluate(t, NewPool(4))
		h := sha256.New()
		var b [8]byte
		worst := 0.0
		for q, pot := range pots {
			for _, v := range pot {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			want, err := Direct(c.kernel, c.pts, c.pts, dens[q])
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, rel(pot, want))
		}
		return fmt.Sprintf("%x flops=%d wdirect=%d xdirect=%d err=%.2e", h.Sum(nil), st.Flops(), st.WDirect, st.XDirect, worst)
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full sweep: -short trims the seeded draw")
		}
		var out strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&out, "%s %s\n", c.name, line(t, c))
		}
		if err := os.WriteFile(conformanceGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(conformanceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, rest, _ := strings.Cut(l, " ")
		golden[name] = rest
	}
	if !testing.Short() && len(golden) != len(cases) {
		t.Errorf("golden holds %d cases, the sweep draws %d", len(golden), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := golden[c.name]
			if !ok && testing.Short() {
				t.Skip("-short trimmed this case's degree; the golden holds the full draw")
			}
			if !ok {
				t.Fatalf("no golden entry; rewrite %s with -update and declare the rounding class", conformanceGoldenPath)
			}
			if got := line(t, c); got != want {
				t.Errorf("result bits moved\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestConformanceBitwiseAcrossElasticWidths: identical plans evaluated
// at granted widths 1, 2 and the full pool must agree bit for bit, on the
// batch path too — the guarantee that lets the scheduler pick widths
// freely.
func TestConformanceBitwiseAcrossElasticWidths(t *testing.T) {
	pts := FlattenPatches(CornerPatches(41, 900, 0.35))
	n := len(pts) / 3
	dens := [][]float64{
		RandomDensities(42, n, 1),
		RandomDensities(43, n, 1),
	}
	if testing.Short() {
		dens = dens[:1]
	}
	var want [][]float64
	for _, workers := range []int{1, 2, 8} {
		// A fresh idle pool per run grants exactly the requested width
		// even on a single-core machine.
		ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{
			Kernel: Laplace(), Degree: 4, MaxPoints: 25,
			Workers: workers, Pool: NewPool(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, st, _, err := ev.EvaluateBatchTracedCtx(context.Background(), dens)
		if err != nil {
			t.Fatal(err)
		}
		if st.Lanes != workers {
			t.Fatalf("idle pool granted %d lanes, want %d", st.Lanes, workers)
		}
		if want == nil {
			want = got
			continue
		}
		for q := range got {
			for i := range got[q] {
				if got[q][i] != want[q][i] {
					t.Fatalf("width %d differs from width 1 at rhs %d index %d", workers, q, i)
				}
			}
		}
	}
}

// TestConformanceShrinkMidRun: an evaluation whose lease is revoked
// while it runs — competitors acquiring and releasing lanes throughout,
// shrinking the sweep at chunk boundaries and between passes — must
// still produce the undisturbed result bit for bit.
func TestConformanceShrinkMidRun(t *testing.T) {
	pool := NewPool(4)
	pts := FlattenPatches(UniformPatches(51, 1500))
	n := len(pts) / 3
	den := RandomDensities(52, n, 1)
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{
		Kernel: Laplace(), Degree: 5, MaxPoints: 30, Workers: 4, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	wants, st, _, err := ev.EvaluateBatchTracedCtx(context.Background(), [][]float64{den}) // undisturbed: full width
	if err != nil {
		t.Fatal(err)
	}
	want := wants[0]
	if st.Lanes != 4 {
		t.Fatalf("undisturbed evaluation granted %d lanes, want 4", st.Lanes)
	}

	// Competitor: repeatedly grab a lane and let it go, forcing the
	// running evaluation to shed and regrow lanes throughout.
	stop := make(chan struct{})
	contended := make(chan int, 1)
	go func() {
		grabs := 0
		for {
			select {
			case <-stop:
				contended <- grabs
				return
			default:
			}
			lease, err := pool.Acquire(context.Background(), 1)
			if err != nil {
				contended <- grabs
				return
			}
			grabs++
			time.Sleep(200 * time.Microsecond)
			lease.Release()
		}
	}()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := ev.EvaluateCtx(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: contended evaluation differs at %d", r, i)
			}
		}
	}
	close(stop)
	if grabs := <-contended; grabs == 0 {
		t.Error("competitor never acquired a lane; the shrink path was not exercised")
	}
	if in := pool.LanesInUse(); in != 0 {
		t.Errorf("LanesInUse = %d after everything released", in)
	}
}
