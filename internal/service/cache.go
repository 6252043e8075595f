package service

import (
	"container/list"

	kifmm "repro"
	"repro/internal/kernels"
)

// plan is a prepared evaluator plus the immutable facts needed to
// validate and describe requests against it. Evaluation is read-only on
// the underlying evaluator (the FMM engine keeps all per-call state on
// the stack of the call), so a plan admits any number of concurrent
// evaluations without locking.
type plan struct {
	id        string
	ev        *kifmm.Evaluator
	spec      kernels.Spec
	srcCount  int
	trgCount  int
	sourceDim int
	targetDim int
	buildNS   int64
}

// footprint is the plan's live estimated resident size. It is read on
// demand (not snapshotted at build time) because operators are shared
// between plans and built lazily: they appear after the first
// evaluation, and a sharing plan's eviction shifts its share to the
// survivors.
func (p *plan) footprint() int64 { return p.ev.FootprintBytes() }

func (p *plan) info(cached bool) PlanInfo {
	inf := PlanInfo{
		ID: p.id, Cached: cached, Kernel: p.spec,
		Boxes: p.ev.Boxes(), Depth: p.ev.Depth(),
		SrcCount: p.srcCount, TrgCount: p.trgCount,
		SourceDim: p.sourceDim, TargetDim: p.targetDim,
		FootprintBytes: p.footprint(),
	}
	if !cached {
		inf.BuildNanos = p.buildNS
	}
	return inf
}

// planCache is an LRU map from plan key to prepared plan, bounded by
// plan count and (optionally) by the summed estimated plan footprint.
// It is not goroutine safe; the Service guards it with its own mutex.
type planCache struct {
	capacity int
	maxBytes int64      // 0 = no bytes bound
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

func newPlanCache(capacity int, maxBytes int64) *planCache {
	return &planCache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the plan and marks it most recently used.
func (c *planCache) get(id string) (*plan, bool) {
	el, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*plan), true
}

// add inserts p as most recently used and returns the evicted (and
// displaced) plans, if the count or bytes bound was exceeded; the
// caller owns closing them. The newest plan is always retained even
// when it alone exceeds the bytes bound — callers hold a direct
// reference anyway (register returns the plan), so evicting it
// immediately would only break follow-up requests by id. Adding an
// existing key refreshes it and hands back the displaced plan.
//
// The bytes bound is checked against the live footprints: shared
// operator bytes are divided among the plans holding them, and closing
// a victim releases what it alone held, so the total is the estimated
// residency of the plans still cached.
func (c *planCache) add(p *plan) []*plan {
	if el, ok := c.items[p.id]; ok {
		c.ll.MoveToFront(el)
		displaced := el.Value.(*plan)
		el.Value = p
		if displaced == p {
			return nil
		}
		displaced.ev.Close()
		return []*plan{displaced}
	}
	c.items[p.id] = c.ll.PushFront(p)
	var victims []*plan
	for c.ll.Len() > 1 && (c.ll.Len() > c.capacity || (c.maxBytes > 0 && c.totalBytes() > c.maxBytes)) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		victim := oldest.Value.(*plan)
		delete(c.items, victim.id)
		victim.ev.Close()
		victims = append(victims, victim)
	}
	return victims
}

func (c *planCache) len() int { return c.ll.Len() }

// totalBytes sums the live estimated footprints of the cached plans.
func (c *planCache) totalBytes() int64 {
	var b int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		b += el.Value.(*plan).footprint()
	}
	return b
}
