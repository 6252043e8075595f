package kifmm_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	kifmm "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/conformance.golden from this build's results")

const conformanceGoldenPath = "testdata/conformance.golden"

// TestConformanceGolden runs every kifmm.DrawConformanceCases(7001, 12)
// case through every path a caller can take and pins the bits in
// testdata/conformance.golden, one row per name:
//
//   - <case>: the library. The sha256 of the batch result (every
//     potential's float64 bits, little-endian, in order), its flop count,
//     its WDirect / XDirect counts and its relative error against direct
//     summation (the worst vector of the batch, three significant digits).
//   - <case>@cluster2: the loopback TCP cluster, two workers of 1 and 2
//     lanes, one evaluation per vector; sha256 and err as above. The
//     coordinator partitions with every point its own patch, so the row
//     is also the simulated driver at P = 2 over one-point patches, and
//     the test checks that bit for bit. Under -short that socket-free
//     evaluation alone is checked against the row.
//   - <case>@parfmm2: the simulated parallel driver at P = 2 over the
//     case's patches, one evaluation per vector; sha256 and err as above.
//   - parfmm-trace: the default `kifmm-bench -exp parfmm-trace` run, the
//     sha256 of its potentials and its message and byte counts.
//
// The service routes (<case>@json, @frame and @chunked: register and
// evaluate over HTTP with JSON bodies, frame bodies, and a chunked
// upload) have no rows of their own: they must equal the library row bit
// for bit. The cluster and parfmm rows are not all bitwise equal to the
// library yet; they must stay within conformanceTol of direct summation.
// A library batch is its single vectors bit for bit, so where a rank
// reproduces the single-node bits the hashes match: the @parfmm2 rows
// equal the library rows for every case but 00 and 04 (Kelvin on a
// sphere at degree 6), and the @cluster2 rows for 00 and 06 only. The
// TCP path adds no ordering of its own: @cluster2 is the simulated driver
// over one-point patches bit for bit, so what separates it from @parfmm2
// is the partition alone.
// A failing row prints its largest ulp distance from the library result.
//
// A PR that declares itself bit-preserving leaves the file alone; one
// that re-associates or approximates rewrites every row with
// `go test -run ConformanceGolden -update .` and says so in CHANGES.md,
// where the err column shows how little (or how much) the results moved.
// The file is pinned on amd64: the Go compiler fuses multiply-adds on
// arm64, ppc64le and s390x and not there. Under -short no cluster starts
// (real TCP) and the cases whose degree -short trims skip.
func TestConformanceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("conformance golden is pinned on amd64 (no fused multiply-add); this is %s", runtime.GOARCH)
	}
	if *updateGolden && testing.Short() {
		t.Fatal("-update needs the full sweep: -short trims the seeded draw")
	}
	iters := 12
	if testing.Short() {
		iters = 4
	}
	cases := kifmm.DrawConformanceCases(7001, iters)
	golden := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(conformanceGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, rest, _ := strings.Cut(l, " ")
			golden[name] = rest
		}
	}

	// rows collects every row in file order; -update writes them at the
	// end, in one place.
	var rows []string
	row := func(t *testing.T, name, got string, pots, lib [][]float64) {
		t.Helper()
		rows = append(rows, name+" "+got)
		if *updateGolden {
			return
		}
		want, ok := golden[name]
		if !ok {
			t.Fatalf("no golden entry; rewrite %s with -update and declare the rounding class", conformanceGoldenPath)
		}
		if got != want {
			t.Errorf("result bits moved\n got  %s\n want %s%s", got, want, ulpNote(pots, lib))
		}
	}

	// The library rows, each checked by the service routes against its
	// own bits.
	type libResult struct{ dens, pots, direct [][]float64 }
	libs := make([]*libResult, len(cases))
	srv := httptest.NewServer(service.NewServer(service.New(service.Config{})))
	defer srv.Close()
	for i, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if _, ok := golden[c.Name]; !ok && testing.Short() {
				t.Skip("-short trimmed this case's degree; the golden holds the full draw")
			}
			dens, pots, st := c.Evaluate(t, kifmm.NewPool(4))
			r := &libResult{dens: dens, pots: pots, direct: directs(t, c, dens)}
			row(t, c.Name, fmt.Sprintf("%s flops=%d wdirect=%d xdirect=%d err=%.2e",
				hashPots(pots), st.Flops(), st.WDirect, st.XDirect, worstRel(pots, r.direct)), nil, nil)
			libs[i] = r
		})
		for _, route := range []struct {
			name     string
			opts     []client.Option
			register func(*client.Client, context.Context, client.PlanRequest) (client.PlanInfo, error)
		}{
			{"json", nil, (*client.Client).RegisterPlan},
			{"frame", []client.Option{client.WithBinary()}, (*client.Client).RegisterPlan},
			{"chunked", []client.Option{client.WithChunkWords(256)}, (*client.Client).RegisterPlanChunked},
		} {
			t.Run(c.Name+"@"+route.name, func(t *testing.T) {
				lib := libs[i]
				if lib == nil {
					t.Skip("no library result to compare with")
				}
				cl := client.New(srv.URL, route.opts...)
				ctx := context.Background()
				info, err := route.register(cl, ctx, planRequest(t, c))
				if err != nil {
					t.Fatal(err)
				}
				pots, _, err := cl.EvaluateBatch(ctx, info.ID, lib.dens)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(pots, lib.pots) {
					t.Errorf("service result differs from the library's%s", ulpNote(pots, lib.pots))
				}
			})
		}
	}

	// The distributed rows: pinned by hash, bounded against direct
	// summation.
	distributed := func(suffix string, run func(t *testing.T, c kifmm.ConformanceCase, den []float64) []float64) {
		for i, c := range cases {
			t.Run(c.Name+suffix, func(t *testing.T) {
				lib := libs[i]
				if lib == nil {
					t.Skip("no library result to compare with")
				}
				pots := make([][]float64, len(lib.dens))
				for q, den := range lib.dens {
					pots[q] = run(t, c, den)
				}
				e := worstRel(pots, lib.direct)
				if tol := kifmm.ConformanceTol(c.Kernel, c.Degree); e > tol {
					t.Errorf("relative error %.3e > %.0e vs direct summation", e, tol)
				}
				row(t, c.Name+suffix, fmt.Sprintf("%s err=%.2e", hashPots(pots), e), pots, lib.pots)
			})
		}
	}
	parallel := func(t *testing.T, c kifmm.ConformanceCase, patches []kifmm.Patch, den []float64) []float64 {
		res, err := kifmm.EvaluateParallel(patches, den, 2, kifmm.ParallelOptions{Options: kifmm.Options{
			Kernel: c.Kernel, Degree: c.Degree, MaxPoints: c.MaxPts, MaxDepth: c.MaxDepth,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Pot
	}
	var coord *cluster.Coordinator
	if !testing.Short() {
		coord = startCluster(t, 1, 2)
	}
	distributed("@cluster2", func(t *testing.T, c kifmm.ConformanceCase, den []float64) []float64 {
		// The cluster is the simulated driver over one-point patches, so
		// the row is pinned without sockets too.
		sim := parallel(t, c, onePointPatches(c.Pts), den)
		if coord == nil {
			return sim
		}
		req := planRequest(t, c)
		pot, _, err := coord.Evaluate(context.Background(), cluster.EvalRequest{
			Src: c.Pts, Den: den, Kernel: req.Kernel,
			Degree: c.Degree, MaxPoints: c.MaxPts, MaxDepth: c.MaxDepth,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits([][]float64{pot}, [][]float64{sim}) {
			t.Errorf("cluster result differs from the simulated driver's over one-point patches%s", ulpNote([][]float64{pot}, [][]float64{sim}))
		}
		return pot
	})
	distributed("@parfmm2", func(t *testing.T, c kifmm.ConformanceCase, den []float64) []float64 {
		return parallel(t, c, c.Patches, den)
	})

	t.Run("parfmm-trace", func(t *testing.T) {
		rep, err := harness.RunParfmmTrace(harness.ParfmmTraceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		row(t, "parfmm-trace", fmt.Sprintf("%s msgs=%d bytes=%d",
			hashPots([][]float64{rep.Result.Pot}), rep.CommMsgs, rep.CommBytes), nil, nil)
	})

	if *updateGolden {
		if t.Failed() {
			t.Fatalf("not rewriting %s: a row failed", conformanceGoldenPath)
		}
		if err := os.WriteFile(conformanceGoldenPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !testing.Short() && len(golden) != len(rows) {
		t.Errorf("golden holds %d rows, the paths produced %d", len(golden), len(rows))
	}
}

// planRequest is the service form of the case's plan.
func planRequest(t *testing.T, c kifmm.ConformanceCase) client.PlanRequest {
	t.Helper()
	spec, err := kifmm.KernelSpecFor(c.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	return client.PlanRequest{
		Src: c.Pts, Kernel: spec, Degree: c.Degree, MaxPoints: c.MaxPts, MaxDepth: c.MaxDepth,
	}
}

// startCluster brings up a loopback coordinator with one worker per lane
// count and tears it down at test end.
func startCluster(t *testing.T, lanes ...int) *cluster.Coordinator {
	t.Helper()
	ctx := context.Background()
	coord, err := cluster.StartCoordinator(ctx, "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for _, l := range lanes {
		w, err := cluster.StartWorker(ctx, cluster.WorkerConfig{Coordinator: coord.Addr(), Lanes: l})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	return coord
}

// onePointPatches makes every point of pts its own patch: the partition
// the cluster's coordinator runs.
func onePointPatches(pts []float64) []kifmm.Patch {
	patches := make([]kifmm.Patch, len(pts)/3)
	for i := range patches {
		p := pts[3*i : 3*i+3 : 3*i+3]
		patches[i] = kifmm.Patch{Center: [3]float64(p), Points: p}
	}
	return patches
}

// directs is the O(N²) reference for each vector of the batch.
func directs(t *testing.T, c kifmm.ConformanceCase, dens [][]float64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(dens))
	for q, den := range dens {
		want, err := kifmm.Direct(c.Kernel, c.Pts, c.Pts, den)
		if err != nil {
			t.Fatal(err)
		}
		out[q] = want
	}
	return out
}

// worstRel is the largest relative error of the batch.
func worstRel(pots, want [][]float64) float64 {
	worst := 0.0
	for q := range pots {
		worst = math.Max(worst, kifmm.Rel(pots[q], want[q]))
	}
	return worst
}

// hashPots is the sha256 of every potential's float64 bits,
// little-endian, in order.
func hashPots(pots [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, pot := range pots {
		for _, v := range pot {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sameBits reports whether two batches are Float64bits-equal.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for i := range a[q] {
			if math.Float64bits(a[q][i]) != math.Float64bits(b[q][i]) {
				return false
			}
		}
	}
	return true
}

// ulpNote describes the largest ulp distance of pots from the library
// result lib ("" for a library row, which has nothing to compare with).
func ulpNote(pots, lib [][]float64) string {
	if lib == nil {
		return ""
	}
	if len(pots) != len(lib) {
		return fmt.Sprintf("\n %d vectors, the library has %d", len(pots), len(lib))
	}
	var worst uint64
	at := [2]int{}
	for q := range pots {
		if len(pots[q]) != len(lib[q]) {
			return fmt.Sprintf("\n vector %d has %d potentials, the library's %d", q, len(pots[q]), len(lib[q]))
		}
		for i := range pots[q] {
			if d := ulps(pots[q][i], lib[q][i]); d > worst {
				worst, at = d, [2]int{q, i}
			}
		}
	}
	return fmt.Sprintf("\n largest distance from the library result: %d ulp (vector %d, index %d)", worst, at[0], at[1])
}

// ulps is the number of representable float64 values between a and b.
func ulps(a, b float64) uint64 {
	ordered := func(f float64) int64 {
		i := int64(math.Float64bits(f))
		if i < 0 {
			i = math.MinInt64 - i
		}
		return i
	}
	x, y := ordered(a), ordered(b)
	if x < y {
		x, y = y, x
	}
	return uint64(x) - uint64(y)
}
