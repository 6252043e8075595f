// Package fmm implements the adaptive kernel-independent FMM (paper
// Section 2): the upward pass builds upward equivalent densities (S2M at
// leaves, M2M up the tree), the downward pass accumulates downward check
// potentials from the V (M2L), X (S2L) lists and the parent (L2L),
// inverts them into downward equivalent densities, and the leaf
// evaluation combines the U list (direct), W list (M2T) and the local
// expansion (L2T). W and X entries whose leaf holds fewer points than the
// surface that would stand for them go point to point instead
// (tree.Box.SmallLeaf).
//
// Every pass decomposes into independent per-box work synchronized only
// at level boundaries — the observation the paper's parallel algorithm
// rests on — so the engine fans each level out over worker lanes leased
// per call from a shared elastic pool (internal/exec): an evaluation on
// an idle process runs as wide as Options.Workers allows, degrades
// toward one lane under concurrent load, and sheds lanes mid-run as
// competitors arrive — without ever changing its bitwise result.
// Evaluation is read-only on the prepared plan (tree + operators): one
// Evaluator serves concurrent callers.
//
// There is one way to run an evaluation, (*Evaluator).Evaluate: a batch of
// density vectors in, one potential vector per density out, with this
// call's Stats. A single vector is a batch of one, and a batch is its
// vectors bit for bit; it shares the traversal and the per-box work that
// does not depend on the density across its vectors, the shape Krylov
// solvers and the evaluation service need.
//
// The engine records per-stage compute time and flop counts matching the
// stages the paper charts in Figures 4.2/4.3 (Up, DownU, DownV, DownW,
// DownX, Eval).
//
// Construction and evaluation take a context first (NewCtx, Evaluate): it
// is threaded through every pass, checked at each dispatch and level
// barrier and between chunk claims inside a pass, so a cancellation or
// deadline aborts the sweep within one pass and surfaces as a typed error
// (errs.ErrCanceled / errs.ErrDeadlineExceeded, both also satisfying the
// standard context sentinels).
//
// These passes are the only ones in the repository. A rank of the
// distributed algorithm (internal/parfmm) runs them over its local
// essential tree by handing Evaluate a Ghost; what its tree does not hold
// comes from it, consulted at one barrier — after the upward pass, before
// anything reads an upward density of another box — and wherever the near
// field reads a list member's sources. A local evaluation is the same
// code with the tree as its own provider.
package fmm

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/morton"
	"repro/internal/obs"
	"repro/internal/translate"
	"repro/internal/tree"
)

// Options configure an Evaluator; zero values select the paper-matching
// defaults (ApplyDefaults). This is the one declaration of the method's
// parameters: the root package exports it as kifmm.Options, the parallel
// driver and the paper harness embed it, and the cluster's job header
// carries every field but the scheduling pair to the ranks. The
// pseudo-inverse cut is not a parameter: translate.NewSet decides it.
type Options struct {
	// Kernel is the interaction kernel (required).
	Kernel kernels.Kernel
	// Degree is the equivalent-surface degree p (default 6, ~1e-5
	// relative error for the Laplace kernel; use 8 for ~1e-7).
	Degree int
	// MaxPoints is the leaf threshold s (default 60, the paper's usual
	// value; its largest runs use 120).
	MaxPoints int
	// MaxDepth caps the octree depth.
	MaxDepth int
	// Workers is the widest a single evaluation may fan its per-box
	// work out (default GOMAXPROCS; 1 forces the sequential path). It
	// is a ceiling, not a fixed width: the actual width of each call is
	// resolved at Evaluate time by leasing lanes from the shared
	// elastic pool — up to Workers on an idle pool, degrading under
	// concurrent load, shrinking mid-run as competitors arrive. Results
	// are bitwise identical for every granted width: each box's
	// floating-point accumulation order is fixed, and lanes only
	// partition boxes. Workers does not affect what an evaluator
	// computes, so plan identity (kifmm.PlanKey) excludes it.
	Workers int
	// Pool is the elastic lane pool evaluations lease their width from
	// (nil selects the process-wide default, sized GOMAXPROCS).
	// Evaluators sharing a pool — e.g. every plan of the evaluation
	// service — share one scheduling domain: admission and per-call
	// width are decided across all of them. Like Workers, Pool cannot
	// change what an evaluator computes and is excluded from plan
	// identity.
	Pool *exec.Elastic
}

// Stats aggregates per-stage compute times and flop counts of one
// evaluation, mirroring the stage breakdown of the paper's Figures
// 4.2/4.3. Durations are summed across workers (aggregate compute time):
// with Workers=1 they match wall clock; with more workers the wall time
// of a stage is roughly its duration divided by the achieved speedup.
type Stats struct {
	Up, DownU, DownV, DownW, DownX, Eval time.Duration
	FlopsUp, FlopsDownU, FlopsDownV,
	FlopsDownW, FlopsDownX, FlopsEval int64
	// WDirect and XDirect count the W- and X-list entries that took the
	// point-to-point path (tree.Box.SmallLeaf) instead of M2T / S2L, so a
	// trace explains a W or X time without a re-run.
	WDirect, XDirect int64
	// Lanes is the worker-lane width this evaluation was granted at
	// admission by the elastic pool (1 on the sequential path). It is
	// run-level, not a per-stage accumulator, so Add leaves it alone.
	Lanes int
}

// Total returns the summed compute time of all stages.
func (s Stats) Total() time.Duration {
	return s.Up + s.DownU + s.DownV + s.DownW + s.DownX + s.Eval
}

// Flops returns the total flop count.
func (s Stats) Flops() int64 {
	return s.FlopsUp + s.FlopsDownU + s.FlopsDownV + s.FlopsDownW + s.FlopsDownX + s.FlopsEval
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Up += o.Up
	s.DownU += o.DownU
	s.DownV += o.DownV
	s.DownW += o.DownW
	s.DownX += o.DownX
	s.Eval += o.Eval
	s.FlopsUp += o.FlopsUp
	s.FlopsDownU += o.FlopsDownU
	s.FlopsDownV += o.FlopsDownV
	s.FlopsDownW += o.FlopsDownW
	s.FlopsDownX += o.FlopsDownX
	s.FlopsEval += o.FlopsEval
	s.WDirect += o.WDirect
	s.XDirect += o.XDirect
}

// Evaluator computes potentials induced by source densities. Build once,
// evaluate many times (the paper's applications run tens to hundreds of
// interaction evaluations per tree). Evaluation does not mutate the plan
// state, so a single Evaluator is safe for concurrent Evaluate calls.
type Evaluator struct {
	Tree *tree.Tree
	Ops  *translate.Set
	opt  Options
	fft  *translate.FFTM2L
	pool *exec.Elastic
	// upSlot and downSlot number the boxes that can hold an upward
	// density (sources below them) and a downward density or check
	// potential (targets below them, level 2 or deeper); -1 for none. A
	// box's view of the matching workspace slab is its slot times the
	// per-box stride, so placement is fixed by the tree and needs no lock.
	upSlot, downSlot []int32
	nUp, nDown       int
}

// ApplyDefaults fills zero-valued options with the paper-matching
// defaults (degree 6, leaf threshold 60, one worker per logical CPU).
// It is the single source of truth for defaulting: NewCtx and FromTree
// apply it, every rank of a parallel run gets its options through it,
// and kifmm.PlanKey hashes its result, so that options which build
// identical evaluators identify the same plan. For that reason it
// mirrors the exact coercion rules of the downstream construction:
// tree.BuildCtx treats MaxPoints <= 0 as 60 and clamps MaxDepth to
// (0, morton.MaxLevel]. (Negative Degree is not coerced anywhere; it
// fails surface construction and never produces an evaluator. Workers
// is machine-dependent and never hashed.)
func ApplyDefaults(opt Options) Options {
	if opt.Degree == 0 {
		opt.Degree = 6
	}
	if opt.MaxPoints <= 0 {
		opt.MaxPoints = 60
	}
	if opt.MaxDepth <= 0 || opt.MaxDepth > morton.MaxLevel {
		opt.MaxDepth = morton.MaxLevel
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	// Pool, like Workers, is scheduling policy: left alone here (nil
	// resolves to the process default at construction) and never hashed.
	return opt
}

// defaultPool is the process-wide elastic lane pool evaluators without
// an explicit Options.Pool share, sized to the machine. One pool per
// process is the point: concurrent evaluations of unrelated plans still
// negotiate their widths against each other instead of oversubscribing
// the cores.
var (
	defaultPoolOnce sync.Once
	defaultPool     *exec.Elastic
)

// DefaultPool returns the process-wide elastic pool (capacity
// GOMAXPROCS at first use).
func DefaultPool() *exec.Elastic {
	defaultPoolOnce.Do(func() { defaultPool = exec.NewElastic(0) })
	return defaultPool
}

// NewCtx builds the octree over src and trg (flat x,y,z slices, which may
// be the same set, as in the paper's experiments) and prepares the
// translation operators. ctx is checked before and after the expensive
// stages and inside the octree construction's per-level loops
// (tree.BuildCtx), so an impatient caller abandons even a pathological
// tree build within one level.
func NewCtx(ctx context.Context, src, trg []float64, opt Options) (*Evaluator, error) {
	if opt.Kernel == nil {
		return nil, errs.New(errs.CodeInvalidInput, "fmm: Options.Kernel is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.FromContext(err)
	}
	opt = ApplyDefaults(opt)
	tr, err := tree.BuildCtx(ctx, src, trg, tree.Config{MaxPoints: opt.MaxPoints, MaxDepth: opt.MaxDepth})
	if err != nil {
		// Cancellation keeps its typed code; anything else the tree
		// rejected is malformed input.
		return nil, errs.Typed(errs.FromContext(err), errs.CodeInvalidInput)
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.FromContext(err)
	}
	return FromTree(tr, opt)
}

// FromTree wraps an existing octree. The parallel driver calls it on the
// global tree array each rank builds (tree.BuildGlobal), which holds the
// rank's own points: a cluster rank with its worker's lane pool, a
// simulated rank with a private one-lane Options.Pool.
func FromTree(tr *tree.Tree, opt Options) (*Evaluator, error) {
	opt = ApplyDefaults(opt)
	ops, err := translate.NewSet(opt.Kernel, opt.Degree, tr.HalfWidth, 0)
	if err != nil {
		return nil, errs.Typed(err, errs.CodeInvalidInput)
	}
	pool := opt.Pool
	if pool == nil {
		pool = DefaultPool()
	}
	e := &Evaluator{Tree: tr, Ops: ops, opt: opt, fft: translate.NewFFTM2L(ops), pool: pool,
		upSlot: make([]int32, len(tr.Boxes)), downSlot: make([]int32, len(tr.Boxes))}
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		e.upSlot[bi], e.downSlot[bi] = -1, -1
		if b.SrcCount > 0 {
			e.upSlot[bi] = int32(e.nUp)
			e.nUp++
		}
		if b.TrgCount > 0 && b.Level() >= 2 {
			e.downSlot[bi] = int32(e.nDown)
			e.nDown++
		}
	}
	return e, nil
}

// Workers returns the width ceiling of one evaluation: the widest lane
// lease a call of this evaluator can be granted (Options.Workers
// clamped to the pool capacity). The actual width of each call is
// decided at evaluation time by the pool's load; Stats.Lanes reports
// what a specific call was granted.
func (e *Evaluator) Workers() int {
	if e.opt.Workers < e.pool.MaxWorkers() {
		return e.opt.Workers
	}
	return e.pool.MaxWorkers()
}

// FootprintBytes estimates the resident memory of this prepared plan:
// the octree (points, permutations, boxes, interaction lists), its slot
// tables, and this plan's share of the operator-store entries it uses —
// each entry's dense operators and FFT tensors divided by the number of
// open plans holding it, so a byte-bounded plan cache summing
// FootprintBytes counts every shared byte once and nothing a plan does not
// use. The estimate is live: it grows as lazily built operators appear and
// moves when a sharing plan is closed, and only then. It is what the plan
// pins, not the per-call state: the workspaces evaluations write belong to
// the lane pool, at most one per lane of its capacity whatever the number
// of plans (exec.Elastic.SpareBytes counts them).
func (e *Evaluator) FootprintBytes() int64 {
	return e.Tree.MemoryBytes() + 4*int64(len(e.upSlot)+len(e.downSlot)) + e.Ops.CachedBytes() + e.fft.CachedBytes()
}

// Close gives up this plan's hold on its operators: what no other open
// plan uses leaves the operator store, and the heap, once it falls out of
// the store's small fixed retention (translate.retainBytes). A closed
// evaluator remains usable — an evicted service plan finishes its
// in-flight evaluations — it just no longer pins anything. Idempotent.
func (e *Evaluator) Close() { e.Ops.Close() }

// Ghost supplies what the tree of a distributed rank does not hold. Such
// a tree has every box of the global tree but only the rank's own points
// in it, so the passes compute partial upward densities and need, from
// the other ranks, the summed densities and the sources of the leaves
// their near field reads (paper Section 3.2). A local evaluation runs
// the same passes with the tree itself as the provider (treeGhost).
type Ghost interface {
	// Exchange runs once per evaluation, on the calling goroutine, at the
	// barrier between the upward and the downward pass: every upward
	// density is final, nothing downstream has started. It receives the
	// per-box upward densities of the local sources and returns the ones
	// the downward and leaf passes read (nil for a box without sources).
	Exchange(phiU [][]float64) [][]float64
	// Sources returns the source positions of box bi, a member of a U,
	// X or W list, and their densities for right-hand side q. It is
	// called after Exchange, from any lane.
	Sources(bi int32, q int) (pos, den []float64)
	// Counts returns the source and target point counts of box bi that
	// the point-to-point W/X rule (tree.Box.SmallLeaf) decides on, so
	// that every rank holding a part of the box decides alike.
	Counts(bi int32) (src, trg int)
}

// treeGhost is the Ghost of a local evaluation: nothing to exchange, and
// a list member's sources are the tree's own.
type treeGhost struct{ r *runState }

func (g treeGhost) Exchange(phiU [][]float64) [][]float64 { return phiU }

func (g treeGhost) Sources(bi int32, q int) (pos, den []float64) {
	t, sd := g.r.e.Tree, g.r.sd
	b := &t.Boxes[bi]
	return t.SrcSlice(bi), g.r.pdens[q][b.SrcStart*sd : (b.SrcStart+b.SrcCount)*sd]
}

func (g treeGhost) Counts(bi int32) (src, trg int) {
	b := &g.r.e.Tree.Boxes[bi]
	return b.SrcCount, b.TrgCount
}

// runState carries one evaluation's transient state: the engine reads
// the Evaluator but writes only here and in the call's workspace, which
// is what makes concurrent evaluations of one plan safe.
type runState struct {
	e    *Evaluator
	pool *exec.Lease
	g    Ghost
	nrhs int

	sd, td, ne, nc int

	// phiU holds the per-box upward equivalent densities the downward
	// and leaf passes read: the workspace's localU as the Ghost returns
	// it from Exchange.
	phiU [][]float64

	*workspace
}

// workspace is everything one evaluation writes except the potentials it
// returns: buffers only, nothing of a plan. A lane pool keeps its
// workspaces on its spare list (exec.Elastic.TakeSpare): a call takes one
// once admitted and puts it back before its lease ends, so concurrent
// calls never share one, every plan on the pool reuses them, and the pool
// never holds more than its capacity. Every buffer grows on demand (a
// workspace first used by a batch of four of a large plan later serves
// single vectors of a small one) and is either cleared or fully
// overwritten before it is read, so reuse never shows in a result.
type workspace struct {
	pdens  [][]float64 // per-RHS densities, Morton order
	ppots  [][]float64 // per-RHS potentials, Morton order
	localU [][]float64 // per-box upward equivalent densities of the call's own sources (nrhs*ne), nil for none
	phiD   [][]float64 // per-box downward equivalent densities (nrhs*ne), nil for none
	checks [][]float64 // per-box downward check potentials (nrhs*nc), nil for none

	upSlab, downSlab, checkSlab []float64 // backing of localU, phiD, checks

	// The V-list sweep's source grids, one slab reused level after level,
	// and its index of the source boxes they belong to (applyM2LFFT).
	grids        []complex128
	gridOf, used []int32
	// use holds the bytes each of the last calls asked of the workspace,
	// this call's at calls%len(use); the shrink rule reads them. fixed is
	// this call's share that resetWorkspace sizes, to which applyM2LFFT
	// adds its widest level's grid slab and lane accumulators.
	use   [4]int64
	fixed int64
	calls int

	lanes []scratch // per-worker scratch and stats

	// bytes is what the workspace held when last put back, as the pool
	// counts it.
	bytes int64
}

// takeWorkspace takes a workspace off the pool's spare list, or makes an
// empty one when the list is empty.
func takeWorkspace(pool *exec.Elastic) *workspace {
	if w, ok := pool.TakeSpare().(*workspace); ok {
		return w
	}
	return new(workspace)
}

// putBack returns w to the pool's spare list. It first applies the shrink
// rule, which sheds buffers and never results: a workspace holding more
// than four times the most any of the last calls asked of it drops every
// buffer, so one large plan or batch does not pin its memory in a pool
// that now serves small ones.
func (w *workspace) putBack(pool *exec.Elastic) {
	w.calls++
	if w.size() > 4*slices.Max(w.use[:]) {
		*w = workspace{use: w.use, calls: w.calls, bytes: w.bytes}
	}
	was := w.bytes
	w.bytes = w.size()
	pool.PutSpare(w, was, w.bytes)
}

// size returns the bytes w's buffers hold (their backing arrays, not the
// fixed-size headers).
func (w *workspace) size() int64 {
	const f, c, i, sl = 8, 16, 4, 24 // float64, complex128, int32, slice header
	n := c*cap(w.grids) + i*(cap(w.gridOf)+cap(w.used)) +
		f*(cap(w.upSlab)+cap(w.downSlab)+cap(w.checkSlab)) +
		sl*(cap(w.pdens)+cap(w.ppots)+cap(w.localU)+cap(w.phiD)+cap(w.checks))
	for _, b := range w.pdens[:cap(w.pdens)] {
		n += f * cap(b)
	}
	for _, b := range w.ppots[:cap(w.ppots)] {
		n += f * cap(b)
	}
	for _, sc := range w.lanes[:cap(w.lanes)] {
		n += f*(cap(sc.check)+cap(sc.pts)+cap(sc.block)) + c*cap(sc.acc) + sl*(cap(sc.dens)+cap(sc.pots))
	}
	return int64(n)
}

// grow returns buf resliced to n elements, reallocated when too short.
// The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resetWorkspace sizes the call's workspace for its batch on width lanes
// and forgets the previous call: no box has a view, no lane has counted
// anything, and the Morton-order potentials are zero (passes accumulate
// into them). The densities are overwritten by the permutation.
func (r *runState) resetWorkspace(nSrc, nTrg, width int) {
	w, e, nrhs := r.workspace, r.e, r.nrhs
	w.pdens, w.ppots = grow(w.pdens, nrhs), grow(w.ppots, nrhs)
	for q := 0; q < nrhs; q++ {
		w.pdens[q] = grow(w.pdens[q], nSrc*r.sd)
		w.ppots[q] = grow(w.ppots[q], nTrg*r.td)
		clear(w.ppots[q])
	}
	nb := len(e.upSlot)
	w.localU, w.phiD, w.checks = grow(w.localU, nb), grow(w.phiD, nb), grow(w.checks, nb)
	clear(w.localU)
	clear(w.phiD)
	clear(w.checks)
	w.upSlab = grow(w.upSlab, e.nUp*nrhs*r.ne)
	w.downSlab = grow(w.downSlab, e.nDown*nrhs*r.ne)
	w.checkSlab = grow(w.checkSlab, e.nDown*nrhs*r.nc)
	// What the call asks for, counted as size counts it; every lane may
	// need a check-potential and a surface-point buffer.
	const f, sl = 8, 24 // float64, slice header
	w.fixed = int64(f*(nrhs*(nSrc*r.sd+nTrg*r.td)+len(w.upSlab)+len(w.downSlab)+len(w.checkSlab)) +
		sl*(2*nrhs+3*nb) +
		width*(f*(nrhs*r.nc+3*e.Ops.Surf.N+r.sd*r.td)+sl*2*nrhs))
	w.use[w.calls%len(w.use)] = w.fixed
	if cap(w.lanes) < width {
		w.lanes = append(w.lanes[:cap(w.lanes)], make([]scratch, width-cap(w.lanes))...)
	}
	w.lanes = w.lanes[:width]
	for i := range w.lanes {
		sc := &w.lanes[i]
		sc.stats = Stats{}
		sc.dens, sc.pots = grow(sc.dens, nrhs), grow(sc.pots, nrhs)
		sc.block = grow(sc.block, r.sd*r.td)
	}
}

// view hands out box bi's zeroed view of a slab of per-box stride n.
func view(slab []float64, slot int32, n int) []float64 {
	v := slab[int(slot)*n : (int(slot)+1)*n]
	clear(v)
	return v
}

// scratch is one worker's private buffers; ForRange hands every
// invocation a stable worker id, so no locks are needed.
type scratch struct {
	stats Stats
	check []float64
	pts   []float64
	// acc holds the V-list accumulators of a parent's eight children
	// (accumulateSiblings), rhs-major AccumulateBatch layout each.
	acc []complex128
	// dens and pots hold addP2P's per-RHS views for the length of one
	// kernels.P2P call (nil between calls), and block is that call's
	// kernel-block scratch.
	dens, pots [][]float64
	block      []float64
}

func (sc *scratch) checkBuf(n int) []float64 {
	if cap(sc.check) < n {
		sc.check = make([]float64, n)
	}
	return sc.check[:n]
}

func (sc *scratch) ptsBuf(n int) []float64 {
	if cap(sc.pts) < n {
		sc.pts = make([]float64, n)
	}
	return sc.pts[:n]
}

// Evaluate is the one evaluation entry: for every density vector of dens
// it computes pot[i] = Σ_j G(trg_i, src_j) den_j over all targets, in one
// sweep of the tree. A density holds SourceDim components per source in
// the original input order; its potential has TargetDim components per
// target in input order. A single vector is a batch of one, and each
// vector of a larger batch comes out bit for bit as it would alone: every
// stage runs the single-vector arithmetic once per right-hand side. The
// batch shares the traversal, the operator fetches, the FFT M2L tensor
// loads (rhsChunk) and, for every kernel but Laplace, the near-field pair
// geometry (kernels.P2P). The returned Stats are this call's own; their
// flop counts are the sum over its single evaluations.
//
// The call's worker-lane width is resolved here, not at plan time: a lease
// is acquired from the elastic pool (admission — under saturation this is
// where a call queues, honoring ctx) and every pass fans out under it,
// shrinking at chunk-claim boundaries if lanes are revoked mid-run and
// growing back at pass boundaries when the pool drains. ctx flows into
// every pool dispatch; on cancellation the current pass drains at its
// barrier, the partially written run state is discarded, and the typed
// cancellation error is returned.
//
// The returned potentials are the only memory a warm call allocates in
// proportion to the problem. Everything else it writes — the Morton-order
// densities and potentials, the per-box upward and downward densities and
// check potentials, the V-list Fourier grids and the per-lane scratch —
// lives in a workspace the call takes from its lane pool once admitted and
// returns on every exit path, cancellation included. Concurrent calls
// each hold their own, and reuse never changes a bit of the result.
//
// root, when non-nil, is the caller's open span and collects the trace:
// wall-clock intervals for each pass (permute / up / down / leaf /
// unpermute) and each tree level within the up and down passes, plus the
// rhs and granted_lanes attributes; it is ended on success. Pass spans
// measure wall time of the whole parallel sweep, whereas Stats stages sum
// compute time across lanes — the two agree only at width 1. A nil root
// costs nothing (every span method is nil-safe). Passes build the tree
// sequentially and only this call's goroutines see it until return, so no
// locking.
//
// g is nil on every local call and the tree then provides for itself; a
// rank of a distributed run (internal/parfmm) passes the Ghost standing
// for the other ranks. The passes read a list member's sources through
// r.g either way.
func (e *Evaluator) Evaluate(ctx context.Context, dens [][]float64, root *obs.Span, g Ghost) ([][]float64, Stats, error) {
	k := e.opt.Kernel
	sd, td := k.SourceDim(), k.TargetDim()
	t := e.Tree
	nSrc := len(t.SrcPoints) / 3
	nTrg := len(t.TrgPoints) / 3
	if len(dens) == 0 {
		return nil, Stats{}, errs.New(errs.CodeInvalidInput, "fmm: evaluation needs at least one density vector")
	}
	for q, den := range dens {
		if len(den) != nSrc*sd {
			if len(dens) == 1 {
				return nil, Stats{}, errs.Newf(errs.CodeInvalidInput, "fmm: density length %d, want %d", len(den), nSrc*sd)
			}
			return nil, Stats{}, errs.Newf(errs.CodeInvalidInput, "fmm: density %d length %d, want %d", q, len(den), nSrc*sd)
		}
	}
	lease, err := e.pool.Acquire(ctx, e.opt.Workers)
	if err != nil {
		return nil, Stats{}, errs.FromContext(err)
	}
	defer lease.Release()
	w := takeWorkspace(e.pool)
	// Every pass has drained at its barrier by the time this runs, on
	// every exit path, so no lane still writes into the workspace; and it
	// runs before Release, so the pool's workspaces never outnumber its
	// leases.
	defer w.putBack(e.pool)
	r := &runState{
		e: e, pool: lease, nrhs: len(dens),
		sd: sd, td: td, ne: e.Ops.EquivCount(), nc: e.Ops.CheckCount(),
		workspace: w,
	}
	// Scratch is sized off the lease ceiling, not the granted width: a
	// shrunken call can fan back out at a pass boundary.
	r.resetWorkspace(nSrc, nTrg, lease.MaxWidth())
	if r.g = g; g == nil {
		r.g = treeGhost{r}
	}
	root.SetAttr("rhs", strconv.Itoa(r.nrhs))
	root.SetAttr("granted_lanes", strconv.Itoa(lease.Granted()))
	// Permute densities into Morton order (fanned out across the batch).
	sp := root.StartChild("permute")
	err = r.pool.ForRange(ctx, 0, r.nrhs, func(_, q int) {
		p := r.pdens[q]
		for i, orig := range t.SrcPerm {
			o := int(orig)
			copy(p[i*sd:(i+1)*sd], dens[q][o*sd:(o+1)*sd])
		}
	})
	sp.End()
	if err == nil {
		sp = root.StartChild("up")
		err = r.upwardPass(ctx, sp)
		sp.End()
	}
	if err == nil {
		r.phiU = r.g.Exchange(r.localU)
	}
	var downSp, leafSp *obs.Span
	if err == nil {
		downSp = root.StartChild("down")
		err = r.downwardPass(ctx, downSp)
		downSp.End()
	}
	if err == nil {
		leafSp = root.StartChild("leaf")
		err = r.leafEvaluation(ctx)
		leafSp.End()
	}

	// Un-permute potentials to input order.
	pots := make([][]float64, r.nrhs)
	if err == nil {
		sp = root.StartChild("unpermute")
		err = r.pool.ForRange(ctx, 0, r.nrhs, func(_, q int) {
			pot := make([]float64, nTrg*td)
			for i, orig := range t.TrgPerm {
				o := int(orig)
				copy(pot[o*td:(o+1)*td], r.ppots[q][i*td:(i+1)*td])
			}
			pots[q] = pot
		})
		sp.End()
	}
	if err != nil {
		return nil, Stats{}, errs.FromContext(err)
	}
	var st Stats
	for i := range r.lanes {
		st.Add(r.lanes[i].stats)
	}
	st.Lanes = lease.Granted()
	downSp.SetAttr("x_direct", strconv.FormatInt(st.XDirect, 10))
	leafSp.SetAttr("w_direct", strconv.FormatInt(st.WDirect, 10))
	root.End()
	return pots, st, nil
}

// denOf returns the per-RHS density views of list member a's sources, as
// the ghost provider holds them.
func (r *runState) denOf(a int32) func(q int) []float64 {
	return func(q int) []float64 {
		_, den := r.g.Sources(a, q)
		return den
	}
}

// potAt returns the per-RHS potential views of a box's target range.
func (r *runState) potAt(b *tree.Box) func(q int) []float64 {
	return func(q int) []float64 {
		return r.ppots[q][b.TrgStart*r.td : (b.TrgStart+b.TrgCount)*r.td]
	}
}

// sliceAt returns the per-RHS views of an rhs-major buffer with the
// given per-RHS stride.
func sliceAt(buf []float64, stride int) func(q int) []float64 {
	return func(q int) []float64 { return buf[q*stride : (q+1)*stride] }
}

// addP2P accumulates the direct interaction of one (targets, sources)
// pair into dst(q) for every right-hand side, in one kernels.P2P call: a
// batch shares the pair geometry and each vector still comes out bit for
// bit as it would alone, so its flops are those of nrhs single calls.
// (Self interactions vanish: kernels skip zero displacement.)
func (r *runState) addP2P(sc *scratch, trg, src []float64, den, dst func(q int) []float64, flops *int64) {
	k := r.e.opt.Kernel
	for q := range sc.dens {
		sc.dens[q], sc.pots[q] = den(q), dst(q)
	}
	kernels.P2P(k, trg, src, sc.dens, sc.pots, sc.block)
	// The views may alias caller densities or a Ghost's buffers; a pooled
	// workspace must not keep them alive.
	clear(sc.dens)
	clear(sc.pots)
	*flops += int64(r.nrhs) * kernels.P2PFlops(k, len(trg)/3, len(src)/3)
}

// stageStart reads the wall clock for a per-stage timer. Stage times feed
// Stats and trace spans, never numerics, so this is the engine's one
// sanctioned clock read.
func stageStart() time.Time {
	return time.Now() //lint:allow determinism per-stage timing feeds Stats and trace spans, not numerics
}

// levelSpan opens the span of tree level l under a pass span; an
// untraced call (nil sp) does not even build the name.
func levelSpan(sp *obs.Span, l int) *obs.Span {
	if sp == nil {
		return nil
	}
	return sp.StartChild("level " + strconv.Itoa(l))
}

// upwardPass computes upward equivalent densities for every box that
// contains sources, deepest level first (S2M at leaves, M2M inside).
// Levels run in sequence — a parent needs its children — and the boxes
// of one level fan out over the pool.
func (r *runState) upwardPass(ctx context.Context, sp *obs.Span) error {
	t := r.e.Tree
	ne, nc := r.ne, r.nc
	for l := t.Depth() - 1; l >= 0; l-- {
		ls := levelSpan(sp, l)
		radius := t.BoxHalfWidth(l)
		// Fetch the level's operators once, outside the parallel region,
		// so workers apply them lock-free. Internal boxes exist at level
		// l only when level l+1 is populated.
		upPinv := r.e.Ops.UpwardPinv(l)
		var m2m [8]translate.Op
		if l < t.Depth()-1 {
			for o := range m2m {
				m2m[o] = r.e.Ops.M2M(l, o)
			}
		}
		err := r.pool.ForRange(ctx, t.LevelStart[l], t.LevelStart[l+1], func(w, bi int) {
			b := &t.Boxes[bi]
			if b.SrcCount == 0 {
				return
			}
			sc := &r.lanes[w]
			start := stageStart()
			check := sc.checkBuf(r.nrhs * nc)
			for i := range check {
				check[i] = 0
			}
			if b.Leaf {
				src := t.SrcSlice(int32(bi))
				ucPts := r.e.Ops.UpwardCheckPoints(t.BoxCenter(int32(bi)), radius, sc.ptsBuf(3*r.e.Ops.Surf.N))
				den := func(q int) []float64 { return r.pdens[q][b.SrcStart*r.sd : (b.SrcStart+b.SrcCount)*r.sd] }
				r.addP2P(sc, ucPts, src, den, sliceAt(check, nc), &sc.stats.FlopsUp)
			} else {
				for o, ci := range b.Children {
					if ci == tree.Nil || r.localU[ci] == nil {
						continue
					}
					m2m[o].Apply(check, r.localU[ci], r.nrhs)
					sc.stats.FlopsUp += int64(2*nc*ne) * int64(r.nrhs)
				}
			}
			phi := view(r.upSlab, r.e.upSlot[bi], r.nrhs*ne)
			upPinv.Apply(phi, check, r.nrhs)
			sc.stats.FlopsUp += int64(2*ne*nc) * int64(r.nrhs)
			r.localU[bi] = phi
			sc.stats.Up += time.Since(start)
		})
		ls.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// getCheck hands out a box's downward check potentials, zeroed on first
// use in this call. Within each parallel phase a box is visited by
// exactly one worker, and phases are separated by pool barriers, so no
// lock is needed.
func (r *runState) getCheck(bi int32) []float64 {
	if r.checks[bi] == nil {
		r.checks[bi] = view(r.checkSlab, r.e.downSlot[bi], r.nrhs*r.nc)
	}
	return r.checks[bi]
}

// downwardPass accumulates downward check potentials level by level
// (M2L from the V list, S2L from the X list, L2L from the parent) and
// inverts them into downward equivalent densities. The level order is
// sequential (a child needs its parent's phiD); within a level the M2L
// sweep and the per-box X/L2L/inversion sweep each fan out over the
// pool.
func (r *runState) downwardPass(ctx context.Context, sp *obs.Span) error {
	t := r.e.Tree
	ne, nc := r.ne, r.nc
	if t.Depth() <= 2 {
		return nil
	}
	for l := 2; l < t.Depth(); l++ {
		ls := levelSpan(sp, l)
		// V list: M2L translations, batched per level.
		if err := r.applyM2LFFT(ctx, l); err != nil {
			ls.End()
			return err
		}
		downPinv := r.e.Ops.DownwardPinv(l)
		// L2L operators are only applied when the parent has a downward
		// density, which level-1 parents (of the first downward level)
		// never do — don't build 8 unused operators there.
		var l2l [8]translate.Op
		if l > 2 {
			for o := range l2l {
				l2l[o] = r.e.Ops.L2L(l-1, o)
			}
		}
		radius := t.BoxHalfWidth(l)
		surfN := r.e.Ops.Surf.N
		err := r.pool.ForRange(ctx, t.LevelStart[l], t.LevelStart[l+1], func(w, bi int) {
			b := &t.Boxes[bi]
			if b.TrgCount == 0 {
				// No targets anywhere below: the local expansion is
				// useless. (Pruned boxes always have points, but a box
				// can hold sources only.)
				return
			}
			sc := &r.lanes[w]
			// X list: sources of coarser leaves evaluated on the DC surface
			// (S2L) — or, for a leaf with fewer targets than the surface has
			// points, straight at those targets; a box whose only downward
			// contribution was such an X list keeps no check potential and
			// skips the inversion and the L2T.
			if len(b.X) > 0 {
				startX := stageStart()
				var trg []float64
				var dst func(q int) []float64
				if _, trgN := r.g.Counts(int32(bi)); b.SmallLeaf(trgN, surfN) {
					trg, dst = t.TrgSlice(int32(bi)), r.potAt(b)
					sc.stats.XDirect += int64(len(b.X))
				} else {
					trg = r.e.Ops.DownwardCheckPoints(t.BoxCenter(int32(bi)), radius, sc.ptsBuf(3*surfN))
					dst = sliceAt(r.getCheck(int32(bi)), nc)
				}
				for _, a := range b.X {
					src, _ := r.g.Sources(a, 0)
					r.addP2P(sc, trg, src, r.denOf(a), dst, &sc.stats.FlopsDownX)
				}
				sc.stats.DownX += time.Since(startX)
			}
			// L2L from the parent's downward density.
			startE := stageStart()
			if p := b.Parent; p != tree.Nil && r.phiD[p] != nil {
				check := r.getCheck(int32(bi))
				l2l[b.Key.Octant()].Apply(check, r.phiD[p], r.nrhs)
				sc.stats.FlopsEval += int64(2*nc*ne) * int64(r.nrhs)
			}
			if r.checks[bi] != nil {
				phi := view(r.downSlab, r.e.downSlot[bi], r.nrhs*ne)
				downPinv.Apply(phi, r.checks[bi], r.nrhs)
				sc.stats.FlopsEval += int64(2*ne*nc) * int64(r.nrhs)
				r.phiD[bi] = phi
			}
			sc.stats.Eval += time.Since(startE)
		})
		ls.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// rhsChunk picks how many right-hand sides the V-list sweep processes
// per pass: a chunk shares one kernel-tensor load per (target, source)
// pair (a small gain as measured, see applyM2LFFT) and is bounded twice:
// the in-flight Fourier grids of a level — the workspace's one grid slab,
// reused level after level — stay within a fixed memory budget, and so do
// the eight sibling accumulators each lane fills (8 · chunk · td grids).
// The choice depends only on the plan and the batch — never on the
// worker count — so batched results stay deterministic across machines;
// and since a batch is its vectors bit for bit, it cannot move a result.
func rhsChunk(nrhs, nused, sd, td, gl int) int {
	// A longer chunk shares nothing more; its grids only cost memory and
	// cache pressure.
	const maxChunk = 16
	// ~256 MiB of simultaneous source grids (16 bytes per coefficient).
	const budgetBytes = 256 << 20
	// 1 MiB of accumulators per lane (one Laplace vector at degree 6 takes
	// 126 KiB, one Stokes vector 152 KiB at degree 5, 378 KiB at degree 6).
	// Timed against other budgets on a 2-vCPU Xeon guest (BenchmarkDownV's
	// shapes, one and two lanes), it leaves each shape within 5 % of its
	// best chunk. Splitting a Stokes degree-6 batch of four in two costs
	// 2–5 %; a budget that kept it whole would give a Stokes degree-5 batch
	// of sixteen chunks of ten, and chunks of eight are already 10 % slower
	// there than chunks of six (sixteen: 44–54 %).
	const accBudgetBytes = 1 << 20
	c := min(nrhs, maxChunk)
	if per := int64(nused) * int64(sd) * int64(gl) * 16; per > 0 {
		c = min(c, int(budgetBytes/per))
	}
	c = min(c, int(accBudgetBytes/(8*int64(td)*int64(gl)*16)))
	return max(c, 1)
}

// applyM2LFFT batches the level's V-list translations through the
// Fourier path: one forward FFT per contributing source box per RHS,
// Hadamard accumulation per (target, source) pair, one inverse FFT per
// target per RHS. The forward sweep and the accumulate/extract sweep
// each fan out over the pool; a barrier between them guarantees every
// grid is ready. The batch is walked in rhs chunks with rhs-major grids
// (see rhsChunk): within a chunk each kernel tensor is loaded once per
// (target, source) pair and applied to every RHS while cache-hot. The
// repository benchmark measures what that buys: the per-pair, per-RHS
// Hadamard cost at four right-hand sides against one
// (translate.m2l_accumulate_ns_per_pair_nq4 vs _nq1), and a batch of four
// against four single evaluations (fmm.batch_amortization).
//
// The accumulate/extract sweep takes a parent at level l−1 as its work
// unit, not a box at level l: the eight children of a parent share one
// colleague list, so each source grid is read once per sibling group
// instead of once per target (accumulateSiblings).
func (r *runState) applyM2LFFT(ctx context.Context, l int) error {
	t := r.e.Tree
	f := r.e.fft
	sd, td := r.sd, r.td
	ne := r.ne
	gl := f.GridLen()
	lo, hi := t.LevelStart[l], t.LevelStart[l+1]
	// Index every source box used by some V list at this level
	// (RHS-independent; read-only inside the parallel sweeps). V-list
	// members share the level, so the grid slot of box a is gridOf[a-lo],
	// -1 for a box no list uses.
	gridOf := grow(r.gridOf, hi-lo)
	for i := range gridOf {
		gridOf[i] = -1
	}
	used := r.used[:0]
	for bi := lo; bi < hi; bi++ {
		b := &t.Boxes[bi]
		if b.TrgCount == 0 {
			continue
		}
		for _, a := range b.V {
			if r.phiU[a] == nil {
				continue
			}
			if gridOf[int(a)-lo] < 0 {
				gridOf[int(a)-lo] = int32(len(used))
				used = append(used, a)
			}
		}
	}
	r.gridOf, r.used = gridOf, used
	if len(used) == 0 {
		return nil
	}
	chunk := rhsChunk(r.nrhs, len(used), sd, td, gl)
	// Grid i, the rhs-major grids of source box used[i], starts at
	// i*stride. ForwardDensityBatch overwrites every coefficient it
	// hands on, so the reused slab needs no clearing.
	stride := chunk * sd * gl
	r.grids = grow(r.grids, len(used)*stride)
	use := &r.use[r.calls%len(r.use)]
	*use = max(*use, r.fixed+16*int64(len(r.grids)+len(r.lanes)*8*chunk*td*gl))
	for q0 := 0; q0 < r.nrhs; q0 += chunk {
		nq := min(chunk, r.nrhs-q0)
		// Forward-transform every contributing source box for this rhs
		// chunk (grid buffers are reused across chunks).
		err := r.pool.ForRange(ctx, 0, len(used), func(w, i int) {
			sc := &r.lanes[w]
			start := stageStart()
			f.ForwardDensityBatch(r.phiU[used[i]][q0*ne:(q0+nq)*ne], nq, r.grids[i*stride:(i+1)*stride])
			sc.stats.FlopsDownV += int64(5*gl*sd) * int64(nq) // ~5 n log n per grid
			sc.stats.DownV += time.Since(start)
		})
		if err != nil {
			return err
		}
		err = r.pool.ForRange(ctx, t.LevelStart[l-1], lo, func(w, pi int) {
			if !t.Boxes[pi].Leaf {
				r.accumulateSiblings(&r.lanes[w], int32(pi), l, q0, nq, stride)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// accumulateSiblings runs the V-list translations of rhs chunk
// [q0, q0+nq) into the children of parent p at level l. Every child's V
// list is, in order, the children of p's colleagues (colleague order,
// then octant order) that are not adjacent to it (tree.Tree.Colleagues),
// so one walk over those children serves all eight: each source box's
// grids are loaded once and added into every child whose V list holds it
// next, and a cursor per child advances through its list. Each child so
// receives one AccumulateBatch call per V-list member with a grid, in its
// own V-list order, whatever its siblings need: the order, not the work
// unit, fixes its check potential's bits. The eight accumulators are the
// lane's scratch.
func (r *runState) accumulateSiblings(sc *scratch, p int32, l, q0, nq, stride int) {
	t, f := r.e.Tree, r.e.fft
	sd, td, nc := r.sd, r.td, r.nc
	gl := f.GridLen()
	lo := t.LevelStart[l]
	start := stageStart()
	n := nq * td * gl
	acc := grow(sc.acc, 8*n)
	sc.acc = acc
	// The V lists of the children with targets, the cursor into each,
	// whether any member had a grid, and the children's cells.
	var v [8][]int32
	var next [8]int
	var hit [8]bool
	var cell [8][3]int
	for o, ci := range t.Boxes[p].Children {
		if ci != tree.Nil && t.Boxes[ci].TrgCount > 0 {
			v[o] = t.Boxes[ci].V
			x, y, z := t.Boxes[ci].Key.Decode()
			cell[o] = [3]int{int(x), int(y), int(z)}
		}
	}
	for _, q := range t.Colleagues(p) {
		for _, a := range t.Boxes[q].Children {
			if a == tree.Nil {
				continue
			}
			gi := int(r.gridOf[int(a)-lo])
			ax, ay, az := t.Boxes[a].Key.Decode()
			for o := range v {
				if next[o] == len(v[o]) || v[o][next[o]] != a {
					continue
				}
				next[o]++
				if gi < 0 {
					continue
				}
				dst := acc[o*n : (o+1)*n]
				if !hit[o] {
					clear(dst)
					hit[o] = true
				}
				off := [3]int{cell[o][0] - int(ax), cell[o][1] - int(ay), cell[o][2] - int(az)}
				f.AccumulateBatch(dst, r.grids[gi*stride:gi*stride+nq*sd*gl], nq, l, off)
				sc.stats.FlopsDownV += int64(8*gl*sd*td) * int64(nq)
			}
		}
	}
	for o, ci := range t.Boxes[p].Children {
		if !hit[o] {
			continue
		}
		check := r.getCheck(ci)
		for q := 0; q < nq; q++ {
			f.ExtractGrids(acc[o*n+q*td*gl:o*n+(q+1)*td*gl], l, check[(q0+q)*nc:(q0+q+1)*nc])
		}
		sc.stats.FlopsDownV += int64(5*gl*td) * int64(nq)
	}
	sc.stats.DownV += time.Since(start)
}

// leafEvaluation computes target potentials at every leaf: direct U-list
// interactions, W-list M2T evaluations and the local expansion (L2T).
// Leaves own disjoint target ranges, so the whole sweep fans out at
// once.
func (r *runState) leafEvaluation(ctx context.Context) error {
	t := r.e.Tree
	ne := r.ne
	surfN := r.e.Ops.Surf.N
	nsurf := 3 * surfN
	return r.pool.ForRange(ctx, 0, len(t.Boxes), func(w, bi int) {
		b := &t.Boxes[bi]
		if !b.Leaf || b.TrgCount == 0 {
			return
		}
		sc := &r.lanes[w]
		trg := t.TrgSlice(int32(bi))
		pot := r.potAt(b)
		// U list: direct interactions with adjacent leaves (and itself).
		startU := stageStart()
		for _, u := range b.U {
			src, _ := r.g.Sources(u, 0)
			if len(src) == 0 {
				continue
			}
			r.addP2P(sc, trg, src, r.denOf(u), pot, &sc.stats.FlopsDownU)
		}
		sc.stats.DownU += time.Since(startU)
		// W list: far small boxes evaluated from their upward equivalent
		// densities (M2T), or from their sources when those are fewer
		// than the surface points standing for them.
		startW := stageStart()
		for _, wi := range b.W {
			// The rule comes before the density: a small-leaf member's
			// density is never exchanged between ranks.
			wb := &t.Boxes[wi]
			srcN, _ := r.g.Counts(wi)
			if srcN == 0 {
				continue
			}
			if wb.SmallLeaf(srcN, surfN) {
				src, _ := r.g.Sources(wi, 0)
				r.addP2P(sc, trg, src, r.denOf(wi), pot, &sc.stats.FlopsDownW)
				sc.stats.WDirect++
				continue
			}
			surfPts := r.e.Ops.UpwardEquivPoints(t.BoxCenter(wi), t.BoxHalfWidth(wb.Level()), sc.ptsBuf(nsurf))
			r.addP2P(sc, trg, surfPts, sliceAt(r.phiU[wi], ne), pot, &sc.stats.FlopsDownW)
		}
		sc.stats.DownW += time.Since(startW)
		// L2T: evaluate the downward equivalent density at the targets.
		startE := stageStart()
		if r.phiD[bi] != nil {
			surfPts := r.e.Ops.DownwardEquivPoints(t.BoxCenter(int32(bi)), t.BoxHalfWidth(b.Level()), sc.ptsBuf(nsurf))
			r.addP2P(sc, trg, surfPts, sliceAt(r.phiD[bi], ne), pot, &sc.stats.FlopsEval)
		}
		sc.stats.Eval += time.Since(startE)
	})
}
