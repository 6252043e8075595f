package exec

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Elastic is a process-wide pool of worker lanes shared by every
// concurrently running evaluation. Where the old fixed-width Pool split
// parallelism statically (N concurrent calls x M goroutines each,
// decided at plan time), an Elastic sizes each call at runtime:
// Acquire hands out a Lease whose width depends on current load — a
// lone caller on an idle pool gets up to the full capacity, while under
// saturation every caller degrades toward one lane.
//
// Leases are elastic in both directions while they run:
//
//   - When a new caller arrives, the pool lowers the target width of
//     running leases toward the new fair share; their in-flight ForRange
//     sweeps notice at the next chunk-claim boundary, the excess workers
//     retire, and the freed lanes admit the newcomer. A long evaluation
//     therefore shrinks as traffic arrives instead of hogging the
//     machine.
//   - When load drains, a lease grows back toward its ceiling — at its
//     next ForRange dispatch (pass boundary), and mid-sweep too: worker 0
//     re-polls the pool at its chunk-claim boundaries, claims freed
//     lanes and spawns workers for them, so a long pass admitted narrow
//     on a busy pool fans back out as soon as the pool drains instead
//     of crawling to the pass barrier first.
//
// Lane accounting is what Acquire admission-controls: the sum of lanes
// held by live leases never exceeds the capacity, and a caller that
// cannot get one lane queues (honoring ctx) until running sweeps shed
// lanes. Do not acquire a second lease while holding one —
// under saturation that deadlocks the same way nested locks do.
//
// Width never changes what a sweep computes: ForRange hands out worker
// ids only to index per-lease scratch, every index runs exactly once,
// and callers keep per-index accumulation order fixed, so results are
// bitwise identical across every grant width and across mid-sweep
// shrinks.
type Elastic struct {
	capacity int

	mu      sync.Mutex
	held    int // Σ lanes currently charged to live leases
	leases  map[*Lease]struct{}
	waiters map[*Lease]struct{} // Acquire callers queued for a lane
	// changed is closed and replaced whenever lanes free up or targets
	// drop; Acquire waiters select on it alongside their ctx.
	changed chan struct{}

	grantedLanes  int64 // Σ admission grants (lanes), for metrics
	grantedLeases int64 // number of admissions
	nextSeq       int64 // arrival order, the allocation tie-break

	// acquireObs, when set, is invoked after every successful admission
	// with how long the caller queued and the width it was granted.
	acquireObs func(wait time.Duration, granted int)
}

// NewElastic returns an elastic pool with the given lane capacity;
// maxWorkers <= 0 selects runtime.GOMAXPROCS(0).
func NewElastic(maxWorkers int) *Elastic {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	return &Elastic{
		capacity: maxWorkers,
		leases:   make(map[*Lease]struct{}),
		waiters:  make(map[*Lease]struct{}),
		changed:  make(chan struct{}),
	}
}

// MaxWorkers returns the pool's lane capacity.
func (e *Elastic) MaxWorkers() int { return e.capacity }

// SetAcquireObserver installs a callback run after each successful
// Acquire with the admission wait time and granted width — the hook the
// service's lease-wait histogram hangs off. The callback runs outside
// the pool lock on the acquiring goroutine and must be cheap and
// non-blocking; pass nil to remove it.
func (e *Elastic) SetAcquireObserver(fn func(wait time.Duration, granted int)) {
	e.mu.Lock()
	e.acquireObs = fn
	e.mu.Unlock()
}

// LanesInUse returns the number of lanes currently held by live leases
// (the lanes_in_use gauge; never exceeds MaxWorkers).
func (e *Elastic) LanesInUse() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.held
}

// LanesGranted returns the total number of lanes handed out at
// admission across all Acquire calls (mid-run regrowth not counted).
func (e *Elastic) LanesGranted() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.grantedLanes
}

// LeasesGranted returns the number of leases admitted.
func (e *Elastic) LeasesGranted() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.grantedLeases
}

// notifyLocked wakes every Acquire waiter to re-examine pool state.
func (e *Elastic) notifyLocked() {
	close(e.changed)
	e.changed = make(chan struct{})
}

// Lease is one caller's claim on pool lanes, from Acquire until
// Release. A Lease is used by a single evaluation at a time: ForRange
// calls must not overlap (the FMM's passes are sequential), though they
// may come from different goroutines in sequence.
type Lease struct {
	e       *Elastic
	want    int   // width ceiling (clamped to capacity)
	seq     int64 // arrival order; ties in want allocate oldest-first
	granted int   // width at admission, for metrics

	held int // lanes charged to this lease; guarded by e.mu
	// target is the width the current (or next) sweep may use; always
	// <= held while a sweep runs. The pool lowers it to revoke lanes;
	// workers observe it between chunk claims.
	target   atomic.Int32
	released bool // guarded by e.mu
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Acquire admits one evaluation, returning a lease sized by current
// load: up to want lanes (want <= 0 means the full capacity) on an idle
// pool, degrading toward one lane as concurrent leases pile up. When no
// lane is free it first revokes running leases toward the new fair
// share, then blocks — honoring ctx — until their sweeps shed one.
// Callers are admitted in arrival order. The returned lease must be
// Released.
func (e *Elastic) Acquire(ctx context.Context, want int) (*Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow determinism lease-wait timing feeds the acquire observer, not numerics
	e.mu.Lock()
	if want <= 0 || want > e.capacity {
		want = e.capacity
	}
	e.nextSeq++
	l := &Lease{e: e, want: want, seq: e.nextSeq}
	queued := false
	for {
		// Allocate fairly with this caller counted; revoke running
		// leases toward their shares so lanes start flowing back even
		// while we wait.
		alloc := e.allocsLocked(l, queued)
		for o := range e.leases {
			o.lowerTargetLocked(alloc[o])
		}
		if free := e.capacity - e.held; free >= 1 && e.firstInLineLocked(l) {
			grant := clamp(alloc[l], 1, want)
			if grant > free {
				grant = free
			}
			l.held = grant
			l.granted = grant
			l.target.Store(int32(grant))
			e.held += grant
			e.leases[l] = struct{}{}
			e.grantedLanes += int64(grant)
			e.grantedLeases++
			if queued {
				delete(e.waiters, l)
				e.notifyLocked() // the next in line re-checks what is left
			}
			obs := e.acquireObs
			e.mu.Unlock()
			if obs != nil {
				obs(time.Since(start), grant)
			}
			return l, nil
		}
		if !queued {
			// Queued waiters count toward everyone's allocation, so
			// running leases keep shrinking (and stay shrunk across
			// their pass boundaries) until we are admitted.
			queued = true
			e.waiters[l] = struct{}{}
		}
		ch := e.changed
		e.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			e.mu.Lock()
			delete(e.waiters, l)
			e.notifyLocked() // whoever queued behind us may be first now
			e.mu.Unlock()
			return nil, ctx.Err()
		}
		e.mu.Lock()
	}
}

// firstInLineLocked reports whether no caller that arrived before l is
// still queued. Admission is in arrival order: without it a caller that
// releases and at once re-acquires finds its own lane free and takes it
// again, and the one queued meanwhile waits out every such round.
func (e *Elastic) firstInLineLocked(l *Lease) bool {
	for o := range e.waiters {
		if o.seq < l.seq {
			return false
		}
	}
	return true
}

// allocsLocked water-fills the capacity over every current claimant —
// live leases, queued waiters, plus the extra prospective one unless it
// is already queued. Claimants are served smallest want first, each
// taking at most an equal split of what remains and never more than its
// want, so a width-1 plan build claims one lane (not a full 1/n share)
// and division remainders flow to the wider claimants instead of
// sitting idle. Over-subscription (more claimants than lanes) floors
// later shares at 0; callers clamp to the one lane a lease always keeps.
func (e *Elastic) allocsLocked(extra *Lease, queued bool) map[*Lease]int {
	claimants := make([]*Lease, 0, len(e.leases)+len(e.waiters)+1)
	for o := range e.leases {
		claimants = append(claimants, o) //lint:allow determinism claimants are totally ordered by (want, arrival) just below
	}
	for o := range e.waiters {
		claimants = append(claimants, o) //lint:allow determinism claimants are totally ordered by (want, arrival) just below
	}
	if extra != nil && !queued {
		claimants = append(claimants, extra)
	}
	// Deterministic order: smallest want first (they cap their own
	// share, leaving more for the wide ones), arrival order breaking
	// ties — so repeated allocations agree and the split converges.
	sort.Slice(claimants, func(i, j int) bool {
		if claimants[i].want != claimants[j].want {
			return claimants[i].want < claimants[j].want
		}
		return claimants[i].seq < claimants[j].seq
	})
	alloc := make(map[*Lease]int, len(claimants))
	remaining := e.capacity
	for i, o := range claimants {
		share := remaining / (len(claimants) - i)
		if share > o.want {
			share = o.want
		}
		alloc[o] = share
		remaining -= share
	}
	return alloc
}

// lowerTargetLocked revokes this lease's width down to its allocation,
// clamped to one lane and its ceiling. Lanes actually return when the
// running sweep's excess workers hit their next chunk-claim boundary
// (or at the next ForRange dispatch if no sweep is running).
func (l *Lease) lowerTargetLocked(share int) {
	t := clamp(share, 1, l.want)
	if cur := int(l.target.Load()); t < cur {
		l.target.Store(int32(t))
	}
}

// dropLane returns one lane to the pool; called by a worker retiring at
// a chunk-claim boundary after its lane was revoked.
func (l *Lease) dropLane() {
	e := l.e
	e.mu.Lock()
	l.held--
	e.held--
	e.notifyLocked()
	e.mu.Unlock()
}

// resize settles the lease's width at a ForRange dispatch (no workers
// running): lanes revoked between passes are returned immediately, and
// on a drained pool the lease grows back toward its fair share — which
// on an idle pool is its full ceiling. Returns the width to run with.
func (l *Lease) resize() int {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.released {
		return 1
	}
	t := clamp(e.allocsLocked(nil, false)[l], 1, l.want)
	switch {
	case t < l.held:
		e.held -= l.held - t
		l.held = t
		e.notifyLocked()
	case t > l.held:
		if extra := t - l.held; extra > 0 {
			if free := e.capacity - e.held; extra > free {
				extra = free
			}
			l.held += extra
			e.held += extra
		}
	}
	l.target.Store(int32(l.held))
	return l.held
}

// tryGrow re-expands a running sweep at a chunk-claim boundary: when
// every earlier revocation has settled (target == held — a revoked
// worker returns its lane before retiring, so equality means none are
// in flight) and the pool's current allocation grants this lease more
// than it holds, the free lanes are claimed and the target raised.
// Returns how many new worker goroutines the sweep should start.
func (l *Lease) tryGrow() int {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.released || int(l.target.Load()) != l.held {
		return 0
	}
	t := clamp(e.allocsLocked(nil, false)[l], 1, l.want)
	extra := t - l.held
	if free := e.capacity - e.held; extra > free {
		extra = free
	}
	if extra <= 0 {
		return 0
	}
	l.held += extra
	e.held += extra
	l.target.Store(int32(l.held))
	return extra
}

// shrinkTo returns the lanes beyond width w to the pool at dispatch: a
// sweep over fewer items than the lease's width cannot use them, and a
// queued competitor can. The next dispatch's resize reclaims them if
// they are still free.
func (l *Lease) shrinkTo(w int) int {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.released {
		return 1
	}
	if l.held > w {
		e.held -= l.held - w
		l.held = w
		l.target.Store(int32(w))
		e.notifyLocked()
	}
	return l.held
}

// Granted returns the width this lease was admitted with (the quantity
// the per-request width histogram records).
func (l *Lease) Granted() int { return l.granted }

// Width returns the width the current or next sweep may use. It shrinks
// when the pool revokes lanes and grows back at pass boundaries.
func (l *Lease) Width() int { return int(l.target.Load()) }

// MaxWidth returns the widest this lease can ever run (its clamped
// ceiling) — the bound callers size per-worker scratch off.
func (l *Lease) MaxWidth() int { return l.want }

// Release returns every lane to the pool and retires the lease.
// Idempotent. Must not be called while a ForRange is in flight.
func (l *Lease) Release() {
	e := l.e
	e.mu.Lock()
	if l.released {
		e.mu.Unlock()
		return
	}
	l.released = true
	e.held -= l.held
	l.held = 0
	l.target.Store(0)
	delete(e.leases, l)
	e.notifyLocked()
	e.mu.Unlock()
}

// ForRange invokes fn(worker, i) for every i in [lo, hi) under the
// lease, distributing indices dynamically (atomic chunk claiming) over
// the lease's current width and returning after every started
// invocation completed — a barrier. Worker ids stay in [0, MaxWidth()).
//
// Elasticity, both directions, at chunk-claim boundaries:
//
//   - Shrink: each worker re-checks the lease's target between chunk
//     claims — a worker whose lane was revoked finishes its current
//     chunk, returns the lane to the pool and retires, so a concurrent
//     Acquire is admitted within one chunk of work. Worker 0 is never
//     revoked; a sweep always completes.
//   - Grow: worker 0 re-polls the pool between its chunk claims; when
//     competitors have drained and the allocation has room, it claims
//     the freed lanes and spawns a worker goroutine per lane — a sweep
//     admitted at width 1 under saturation re-expands mid-pass the
//     moment the pool goes idle. Revoked-and-regrown lanes reuse the
//     smallest retired worker ids, so live ids always form the prefix
//     {0..width-1} and per-worker scratch (sized MaxWidth) never
//     collides.
//
// Width changes never change results: worker ids only index scratch,
// every index runs exactly once, and per-index accumulation order is
// the caller's own, so outputs are bitwise identical across every
// {shrink, regrow} schedule.
//
// ctx is checked at dispatch and between chunk claims; on cancellation
// the sweep stops claiming, the barrier drains, and ForRange returns
// ctx.Err() with the range only partially processed. A panic in fn is
// re-raised on the calling goroutine after the barrier.
func (l *Lease) ForRange(ctx context.Context, lo, hi int, fn func(worker, i int)) error {
	n := hi - lo
	if n <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := l.resize()
	if w > n {
		// More lanes than items: hand the unusable ones back rather
		// than sitting on them for the whole pass.
		w = l.shrinkTo(n)
	}
	// Grain by the lease's ceiling, not the momentary width: a shrunk
	// sweep keeps fine chunks, which is exactly when frequent boundaries
	// matter (regrowth polls and revocation checks ride on them). At
	// full width this matches the historical n/(w*8).
	maxW := l.want
	if maxW > n {
		maxW = n
	}
	grain := grainFor(n, maxW)
	var next atomic.Int64
	var panicOnce sync.Once
	var panicked any
	var wg sync.WaitGroup
	done := ctx.Done()

	// Retired worker ids, reused smallest-first by regrowth so live ids
	// stay the contiguous prefix {0..target-1} (the revocation check
	// retires exactly the ids >= target).
	var idmu sync.Mutex
	var freeIDs []int
	nextID := w

	var runWorker func(wk int)
	spawn := func(k int) {
		for ; k > 0; k-- {
			idmu.Lock()
			var id int
			if len(freeIDs) > 0 {
				min := 0
				for i := 1; i < len(freeIDs); i++ {
					if freeIDs[i] < freeIDs[min] {
						min = i
					}
				}
				id = freeIDs[min]
				freeIDs[min] = freeIDs[len(freeIDs)-1]
				freeIDs = freeIDs[:len(freeIDs)-1]
			} else {
				id = nextID
				nextID++
			}
			idmu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicked = r })
					}
				}()
				runWorker(id)
			}()
		}
	}
	runWorker = func(wk int) {
		for {
			select {
			case <-done:
				return
			default:
			}
			if wk > 0 && wk >= int(l.target.Load()) {
				// Revoked: record the id before returning the lane, so
				// once held settles every retired id is reusable.
				idmu.Lock()
				freeIDs = append(freeIDs, wk)
				idmu.Unlock()
				l.dropLane()
				return
			}
			if wk == 0 {
				// Only worker 0 polls for growth (it is never revoked,
				// and one poller bounds the lock traffic). Skip when too
				// little work remains for new lanes to help.
				if int64(n)-next.Load() > int64(grain) {
					if extra := l.tryGrow(); extra > 0 {
						spawn(extra)
					}
				}
			}
			clo := next.Add(int64(grain)) - int64(grain)
			if clo >= int64(n) {
				return
			}
			chi := clo + int64(grain)
			if chi > int64(n) {
				chi = int64(n)
			}
			for i := lo + int(clo); i < lo+int(chi); i++ {
				fn(wk, i)
			}
		}
	}

	// Workers 1..w-1 are goroutines; worker 0 runs inline on the caller
	// (a width-1 sweep pays no goroutine at all until it grows).
	for wk := 1; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			runWorker(wk)
		}(wk)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		runWorker(0)
	}()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
