package parfmm

import (
	"context"
	"math/bits"
	"strconv"

	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tree"
)

// rank holds one processor's state. c is any mpi.Transport — the
// in-process simulation (Evaluate) or the cluster's TCP transport
// (EvaluateRank); the algorithm code is identical over both.
type rank struct {
	c   mpi.Transport
	in  *RankInput
	opt fmm.Options

	// tl is this rank's span tree, on the transport's clock, and its
	// communication ledger when Options.Trace is set; iter is the open
	// iteration (or warm-up) span, under which the exchange spans and the
	// engine's pass spans nest. Both are nil on an untraced run, which
	// costs nothing: every span method is nil-safe.
	tl   *obs.RankTimeline
	iter *obs.Span

	// eng runs the passes over tree, the global tree array holding this
	// rank's points only.
	eng  *fmm.Evaluator
	tree *tree.Tree
	pden []float64 // local densities in Morton order
	gCnt []int64   // global point count per box

	// Rank bit masks, boxes x words: bit r of a box's words is set when
	// rank r contributes to it, or uses its global source data or upward
	// equivalent density.
	words                   int
	contrib, srcUse, denUse []int64
	owner                   []int32

	// The two ghost exchanges (Algorithm 1) whose ghost values every
	// evaluation rewrites: the leaf sources, and the upward equivalent
	// densities summed from the engine's partial ones, phiU.
	src, den *ghostData
	phiU     [][]float64

	pot []float64 // local potentials, original local order
}

// newRank prepares a rank over transport c whose engine fans out as
// opt.Workers and opt.Pool allow; trace installs the span timeline and the
// communication-ledger observer.
func newRank(c mpi.Transport, in *RankInput, opt fmm.Options, trace bool) *rank {
	rk := &rank{c: c, in: in, opt: opt}
	if trace {
		rk.tl = obs.NewRankTimeline(c.Rank(), c.Elapsed)
		c.SetObserver(func(ev mpi.Event) { rk.tl.Msgs = append(rk.tl.Msgs, ev) })
	}
	return rk
}

// root is the rank's root span (nil when untraced).
func (rk *rank) root() *obs.Span {
	if rk.tl == nil {
		return nil
	}
	return rk.tl.Root
}

// run is the rank body both drivers share: build the tree and the
// ownership tables, run the driver's evaluations, close the engine and
// end the rank's root span. EvaluateRank passes one evaluation; the
// simulated Evaluate its warm-up and timed iterations.
func (rk *rank) run(ctx context.Context, evaluations func() error) error {
	defer rk.root().End()
	if err := rk.prepare(ctx); err != nil {
		return errs.FromContext(err)
	}
	defer rk.eng.Close()
	return evaluations()
}

// prepare builds the rank's tree, its engine and the ownership tables.
func (rk *rank) prepare(ctx context.Context) error {
	sp := rk.root().StartChild("tree_build")
	err := rk.buildTree(ctx)
	sp.End()
	if err != nil {
		return err
	}
	sp = rk.root().StartChild("assign_owners")
	rk.assignOwners()
	sp.End()
	return nil
}

// commSpan runs one step of an exchange under a span of the open
// iteration carrying the bytes it moved (sent + received) and the
// messages it sent.
func (rk *rank) commSpan(name string, step func()) {
	c := rk.c
	bytes, msgs := c.BytesSent()+c.BytesRecv(), c.Messages()
	sp := rk.iter.StartChild(name)
	step()
	sp.SetAttr("bytes", strconv.FormatInt(c.BytesSent()+c.BytesRecv()-bytes, 10))
	sp.SetAttr("msgs", strconv.FormatInt(c.Messages()-msgs, 10))
	sp.End()
}

// contributes reports whether this rank has points in box bi.
func (rk *rank) contributes(bi int32) bool { return rk.tree.Boxes[bi].SrcCount > 0 }

// smallLeaf applies the shared W/X point-to-point rule to box bi with
// its global point count, so every rank reaches the same decision.
func (rk *rank) smallLeaf(bi int32) bool {
	return rk.tree.Boxes[bi].SmallLeaf(int(rk.gCnt[bi]), rk.eng.Ops.Surf.N)
}

// buildTree builds the rank's copy of the global tree array (paper
// Section 3.1, tree.BuildGlobal over the rank's transport), permutes the
// local densities into its Morton order and wraps the tree into the
// rank's engine.
func (rk *rank) buildTree(ctx context.Context) error {
	var err error
	cfg := tree.Config{MaxPoints: rk.opt.MaxPoints, MaxDepth: rk.opt.MaxDepth}
	if rk.tree, rk.gCnt, err = tree.BuildGlobal(ctx, rk.c, rk.in.Pts, cfg); err != nil {
		return err
	}
	sd := rk.opt.Kernel.SourceDim()
	rk.pden = make([]float64, len(rk.in.Den))
	for i, orig := range rk.tree.SrcPerm {
		copy(rk.pden[i*sd:(i+1)*sd], rk.in.Den[int(orig)*sd:(int(orig)+1)*sd])
	}
	rk.eng, err = fmm.FromTree(rk.tree, rk.opt)
	return err
}

// assignOwners implements the paper's three-step owner assignment: mark
// boxes whose sole contributor is known locally (local count == global
// count), combine with an Allreduce, then run the same deterministic
// balancing pass everywhere for multi-contributor boxes. It also builds
// the contributor and user masks that drive Algorithm 1.
func (rk *rank) assignOwners() {
	c := rk.c
	nb := len(rk.tree.Boxes)
	rk.words = (c.Size() + 63) / 64

	// Ranks set disjoint bits, so a sum over ranks is their union.
	mark := func(mask []int64, bi int32) {
		mask[int(bi)*rk.words+c.Rank()/64] |= 1 << (c.Rank() % 64)
	}
	contrib := make([]int64, nb*rk.words)
	for bi := 0; bi < nb; bi++ {
		if rk.contributes(int32(bi)) {
			mark(contrib, int32(bi))
		}
	}
	rk.contrib = c.AllreduceInt64(mpi.OpSum, contrib)

	// Step 1+2: sole contributors take their boxes; Allreduce(max)
	// publishes the taken set.
	taken := make([]int64, nb)
	for bi := 0; bi < nb; bi++ {
		b := &rk.tree.Boxes[bi]
		if b.SrcCount > 0 && int64(b.SrcCount) == rk.gCnt[bi] {
			taken[bi] = int64(c.Rank()) + 1
		}
	}
	taken = c.AllreduceInt64(mpi.OpMax, taken)
	// Step 3: identical sequential balancing pass for the rest.
	rk.owner = make([]int32, nb)
	rr := 0
	for bi := 0; bi < nb; bi++ {
		if taken[bi] > 0 {
			rk.owner[bi] = int32(taken[bi] - 1)
		} else {
			rk.owner[bi] = int32(rr % c.Size())
			rr++
		}
	}

	// User masks: which ranks need a box's global source data (U and X
	// lists, and small-leaf W members, which are evaluated from their
	// sources) or its global upward equivalent density (V list and the
	// other W members).
	use := make([]int64, 2*nb*rk.words)
	srcPart := use[:nb*rk.words]
	denPart := use[nb*rk.words:]
	for bi := 0; bi < nb; bi++ {
		if !rk.contributes(int32(bi)) {
			continue
		}
		b := &rk.tree.Boxes[bi]
		for _, u := range b.U {
			mark(srcPart, u)
		}
		for _, x := range b.X {
			mark(srcPart, x)
		}
		for _, v := range b.V {
			mark(denPart, v)
		}
		for _, w := range b.W {
			if rk.smallLeaf(w) {
				mark(srcPart, w)
			} else {
				mark(denPart, w)
			}
		}
	}
	use = c.AllreduceInt64(mpi.OpSum, use)
	rk.srcUse, rk.denUse = use[:nb*rk.words], use[nb*rk.words:]
	rk.src, rk.den = rk.sourceData(), rk.densityData()
}

// forEachRank calls fn for every rank whose bit is set in the mask of bi.
func (rk *rank) forEachRank(mask []int64, bi int32, fn func(r int)) {
	for w := 0; w < rk.words; w++ {
		for m := uint64(mask[int(bi)*rk.words+w]); m != 0; m &= m - 1 {
			fn(w*64 + bits.TrailingZeros64(m))
		}
	}
}

// isUser reports whether this rank's bit is set in the mask of box bi.
func (rk *rank) isUser(mask []int64, bi int32) bool {
	r := rk.c.Rank()
	return mask[int(bi)*rk.words+r/64]&(1<<(r%64)) != 0
}

// pointWorkEstimate attributes the rank's interaction work to its local
// points, in original local order. Each point's estimate is its leaf's
// dominant cost — the dense U-list interactions plus the per-point share
// of the leaf's list work — which is the "workload information from
// previous time steps" the paper proposes feeding back into the
// partitioner. Units are approximate flops per point.
func (rk *rank) pointWorkEstimate() []int64 {
	t := rk.tree
	k := rk.opt.Kernel
	n := len(t.SrcPoints) / 3
	sorted := make([]int64, n)
	surfN := rk.eng.Ops.Surf.N
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 {
			continue
		}
		// Dense work per target point: sum of ghost source counts over
		// the U list.
		var uSrc int
		for _, u := range b.U {
			uSrc += int(rk.gCnt[u])
		}
		perPoint := kernels.P2PFlops(k, 1, uSrc)
		// List work shared by the leaf's points: L2T, S2M and W — M2T
		// from a surface, or the member's own sources when it is a small
		// leaf.
		listSrc := 2 * surfN
		for _, w := range b.W {
			if rk.smallLeaf(w) {
				listSrc += int(rk.gCnt[w])
			} else {
				listSrc += surfN
			}
		}
		perPoint += kernels.P2PFlops(k, 1, listSrc)
		for i := b.SrcStart; i < b.SrcStart+b.SrcCount; i++ {
			sorted[i] = perPoint
		}
	}
	// Un-permute to the rank's original local order.
	out := make([]int64, n)
	for i, orig := range t.SrcPerm {
		out[orig] = sorted[i]
	}
	return out
}
