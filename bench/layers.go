package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"time"

	kifmm "repro"
	"repro/internal/direct"
	"repro/internal/fft"
	"repro/internal/service"
	"repro/internal/translate"
	"repro/internal/tree"
	"repro/internal/wire"
)

// shape is what the layer measurements need to know about a workload:
// its geometry and options select the tree, the operator set, the FFT
// grid and the leaf size; payload is the float array one request ships.
type shape struct {
	pts       []float64
	kernel    kifmm.Kernel
	degree    int
	maxPoints int
	payload   []float64
}

// measureSharedLayers times the layers every workload runs on, around
// their public functions, on the workload's own geometry and payload.
func measureSharedLayers(ctx context.Context, sh shape, layer map[string]float64) error {
	tr, err := measureTree(ctx, sh, layer)
	if err != nil {
		return err
	}
	if err := measureM2L(sh, tr, layer); err != nil {
		return err
	}
	measureFFT(sh, layer)
	if err := measureP2P(sh, layer); err != nil {
		return err
	}
	if err := measureWire(sh, layer); err != nil {
		return err
	}
	return measurePlanKey(sh, layer)
}

func measureTree(ctx context.Context, sh shape, layer map[string]float64) (*tree.Tree, error) {
	var tr *tree.Tree
	var builds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		t, err := tree.BuildCtx(ctx, sh.pts, sh.pts, tree.Config{MaxPoints: sh.maxPoints})
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
		tr = t
	}
	layer["tree.build_s"] = median(builds)
	layer["tree.boxes"] = float64(len(tr.Boxes))
	layer["tree.depth"] = float64(tr.Depth())
	var leaves, u, v, w, x int
	for i := range tr.Boxes {
		b := &tr.Boxes[i]
		if b.Leaf {
			leaves++
		}
		u += len(b.U)
		v += len(b.V)
		w += len(b.W)
		x += len(b.X)
	}
	layer["tree.leaves"] = float64(leaves)
	layer["tree.list_u_entries"] = float64(u)
	layer["tree.list_v_entries"] = float64(v)
	layer["tree.list_w_entries"] = float64(w)
	layer["tree.list_x_entries"] = float64(x)
	return tr, nil
}

// vDirections lists the distinct (level, offset) pairs of the tree's V
// lists, the kernel tensors an evaluation builds lazily.
func vDirections(tr *tree.Tree) (levels []int, offs [][3]int) {
	seen := map[[4]int]bool{}
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		bx, by, bz := b.Key.Decode()
		for _, a := range b.V {
			ax, ay, az := tr.Boxes[a].Key.Decode()
			off := [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)}
			key := [4]int{b.Level(), off[0], off[1], off[2]}
			if !seen[key] {
				seen[key] = true
				levels = append(levels, b.Level())
				offs = append(offs, off)
			}
		}
	}
	return levels, offs
}

// translateSetup is the cold operator construction an evaluator does
// lazily inside its first evaluation, split into the dense operators and
// the FFT M2L tensors. The operator caches are process-global, so the
// numbers mean set-up cost only in a process that has not evaluated yet:
// the traced run takes them from a fresh child (see -layer-child).
type translateSetup struct {
	DenseOpsSetupS float64 `json:"dense_ops_setup_s"`
	M2LSetupS      float64 `json:"m2l_setup_s"`
	CachedMB       float64 `json:"cached_mb"`
}

func measureTranslateSetup(ctx context.Context, sh shape) (translateSetup, error) {
	var out translateSetup
	tr, err := tree.BuildCtx(ctx, sh.pts, sh.pts, tree.Config{MaxPoints: sh.maxPoints})
	if err != nil {
		return out, err
	}
	start := time.Now()
	set, err := translate.NewSet(sh.kernel, sh.degree, tr.HalfWidth, 0)
	if err != nil {
		return out, err
	}
	for l := 0; l <= tr.Depth(); l++ {
		set.UpwardPinv(l)
		set.DownwardPinv(l)
		for o := 0; o < 8; o++ {
			set.M2M(l, o)
			set.L2L(l, o)
		}
	}
	out.DenseOpsSetupS = time.Since(start).Seconds()

	start = time.Now()
	f := translate.NewFFTM2L(set)
	sd, td := sh.kernel.SourceDim(), sh.kernel.TargetDim()
	src := make([]complex128, sd*f.GridLen())
	acc := make([]complex128, td*f.GridLen())
	levels, offs := vDirections(tr)
	for i := range offs {
		f.AccumulateBatch(acc, src, 1, levels[i], offs[i])
	}
	out.M2LSetupS = time.Since(start).Seconds()
	out.CachedMB = float64(set.CachedBytes()+f.CachedBytes()) / 1e6
	return out, nil
}

// measureM2L times the three steps of the FFT far field on warm tensors:
// forward transform per source box, Hadamard accumulate per V-list pair
// (per right-hand side, at batch widths 1 and 4) and extract per target
// box.
func measureM2L(sh shape, tr *tree.Tree, layer map[string]float64) error {
	set, err := translate.NewSet(sh.kernel, sh.degree, tr.HalfWidth, 0)
	if err != nil {
		return err
	}
	defer set.Close()
	f := translate.NewFFTM2L(set)
	defer f.Close()
	levels, offs := vDirections(tr)
	if len(offs) == 0 {
		return nil
	}
	const nqMax = 4
	sd, td := sh.kernel.SourceDim(), sh.kernel.TargetDim()
	gl := f.GridLen()
	rng := rand.New(rand.NewSource(7))
	phi := genDensities(rng, nqMax*set.EquivCount())
	src := make([]complex128, nqMax*sd*gl)
	acc := make([]complex128, nqMax*td*gl)
	check := make([]float64, set.CheckCount())

	layer["translate.m2l_forward_ns_per_box"] = timeLoop(func() {
		f.ForwardDensityBatch(phi[:set.EquivCount()], 1, src[:sd*gl])
	})
	f.ForwardDensityBatch(phi, nqMax, src)
	for _, nq := range []int{1, nqMax} {
		i := 0
		ns := timeLoop(func() {
			f.AccumulateBatch(acc[:nq*td*gl], src[:nq*sd*gl], nq, levels[i], offs[i])
			i = (i + 1) % len(offs)
		})
		name := "translate.m2l_accumulate_ns_per_pair_nq1"
		if nq == nqMax {
			name = "translate.m2l_accumulate_ns_per_pair_nq4"
		}
		layer[name] = ns / float64(nq)
	}
	// Extract destroys its input, and repeated inverses of the leftovers
	// decay into denormals; every call gets a fresh copy of real data.
	filled := append([]complex128(nil), acc[:td*gl]...)
	layer["translate.m2l_extract_ns_per_box"] = timeLoop(func() {
		copy(acc, filled)
		f.ExtractGrids(acc[:td*gl], levels[0], check)
	})
	return nil
}

// measureFFT times the 3-D real transform at the grid edge the degree
// selects (the smallest 5-smooth M >= 2p-1).
func measureFFT(sh shape, layer map[string]float64) {
	plan := fft.NewPlan3R(fft.NextSmooth(2*sh.degree - 1))
	rng := rand.New(rand.NewSource(7))
	vol := genDensities(rng, plan.RealLen())
	freq := make([]complex128, plan.FreqLen())
	layer["fft.plan3r_forward_ns"] = timeLoop(func() { plan.Forward(freq, vol) })
	back := make([]float64, plan.RealLen())
	// Inverse destroys its input, and repeated inverses of the leftovers
	// decay into denormals; every call gets a fresh copy of the spectrum.
	spectrum := append([]complex128(nil), freq...)
	layer["fft.plan3r_inverse_ns"] = timeLoop(func() {
		copy(freq, spectrum)
		plan.Inverse(back, freq)
	})
}

// measureP2P times direct kernel evaluation on one full leaf pair
// (maxPoints targets x maxPoints sources).
func measureP2P(sh shape, layer map[string]float64) error {
	s := sh.maxPoints
	rng := rand.New(rand.NewSource(7))
	trg := genUniform(rng, s)
	src := genUniform(rng, s)
	den := genDensities(rng, s*sh.kernel.SourceDim())
	var evalErr error
	ns := timeLoop(func() {
		if _, err := direct.Evaluate(sh.kernel, trg, src, den); err != nil {
			evalErr = err
		}
	})
	layer["kernels.p2p_ns_per_pair"] = ns / float64(s*s)
	return evalErr
}

// measureWire encodes and decodes the workload's payload in both request
// encodings: the binary frame (magic + counted little-endian words, the
// layout of an evaluate body) and the JSON evaluate request.
func measureWire(sh shape, layer map[string]float64) error {
	pay := sh.payload
	points := float64(len(sh.pts) / 3)

	var frame []byte
	ns := timeLoop(func() {
		var w wire.Writer
		w.Grow(12 + 8*len(pay))
		w.U32(wire.FrameMagic)
		w.F64s(pay)
		frame = w.Bytes()
	})
	mb := float64(len(frame)) / 1e6
	layer["wire.frame_encode_mb_per_s"] = mb / (ns / 1e9)
	layer["wire.frame_bytes_per_point"] = float64(len(frame)) / points
	var decErr error
	ns = timeLoop(func() {
		r := wire.NewReader(frame)
		r.U32()
		r.F64s()
		if err := r.Err(); err != nil {
			decErr = err
		}
	})
	layer["wire.frame_decode_mb_per_s"] = mb / (ns / 1e9)
	if decErr != nil {
		return decErr
	}

	var body []byte
	var jsonErr error
	ns = timeLoop(func() {
		b, err := json.Marshal(service.EvaluateRequest{Densities: pay})
		if err != nil {
			jsonErr = err
		}
		body = b
	})
	mb = float64(len(body)) / 1e6
	layer["wire.json_encode_mb_per_s"] = mb / (ns / 1e9)
	layer["wire.json_bytes_per_point"] = float64(len(body)) / points
	ns = timeLoop(func() {
		var req service.EvaluateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			jsonErr = err
		}
	})
	layer["wire.json_decode_mb_per_s"] = mb / (ns / 1e9)
	return jsonErr
}

// measurePlanKey times the content hash every registration and one-shot
// pays, over the workload's geometry.
func measurePlanKey(sh shape, layer map[string]float64) error {
	opt := kifmm.Options{Kernel: sh.kernel, Degree: sh.degree, MaxPoints: sh.maxPoints}
	var keyErr error
	ns := timeLoop(func() {
		if _, err := kifmm.PlanKey(sh.pts, sh.pts, opt); err != nil {
			keyErr = err
		}
	})
	layer["service.plan_key_mb_per_s"] = float64(2*8*len(sh.pts)) / 1e6 / (ns / 1e9)
	return keyErr
}
