package exec

import (
	"cmp"
	"context"
	"runtime"
	"slices"
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

	// claimants is allocsLocked's reused claimant list.
	claimants []*Lease

	// spares is the free list callers keep per-call state on between
	// leases (TakeSpare / PutSpare); out counts the items taken and not
	// yet put back, misses the takes that found the list empty, and
	// spareBytes what the items out and on the list hold, as their
	// holders last reported it.
	spares     []any
	out        int
	misses     int64
	spareBytes int64

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

// TakeSpare takes an item off the pool's spare list for the caller's
// sole use, or returns nil when the list is empty and the caller makes
// its own. Either way one item counts as out until the caller hands it
// back with PutSpare. The list is opaque to the pool: an engine keeps
// its per-call buffers there between leases, so every plan on the pool
// shares them and they die with the pool. A caller that takes after
// Acquire and puts back before Release holds at most one item per live
// lease, so the items out and spare never number more than the
// capacity.
func (e *Elastic) TakeSpare() any {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out++
	n := len(e.spares)
	if n == 0 {
		e.misses++
		return nil
	}
	x := e.spares[n-1]
	e.spares[n-1] = nil
	e.spares = e.spares[:n-1]
	return x
}

// PutSpare ends a TakeSpare: x, which held was bytes when it was taken
// (0 if the caller made it) and holds now bytes, goes back on the list —
// or is dropped when the items out and spare already number the
// capacity.
func (e *Elastic) PutSpare(x any, was, now int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out--
	if len(e.spares)+e.out >= e.capacity {
		e.spareBytes -= was
		return
	}
	e.spareBytes += now - was
	e.spares = append(e.spares, x)
}

// SpareBytes returns the bytes held by the spare list's items, out with
// a caller or on the list, as each was last put back: an item still on
// its first call counts from its first PutSpare.
func (e *Elastic) SpareBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spareBytes
}

// SpareCounts returns how many spare-list items are out with callers and
// on the list, and how many TakeSpare calls found the list empty (each
// of which had its caller make a new item). It is a test hook: the fmm
// and cluster tests bound a pool's workspaces with it.
func (e *Elastic) SpareCounts() (out, spare int, misses int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.out, len(e.spares), e.misses
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

	held  int // lanes charged to this lease; guarded by e.mu
	share int // the last allocsLocked's allocation; guarded by e.mu
	// target is the width the current (or next) sweep may use; always
	// <= held while a sweep runs. The pool lowers it to revoke lanes;
	// workers observe it between chunk claims.
	target   atomic.Int32
	released bool // guarded by e.mu

	// sw is the running ForRange's state; sweeps of one lease never
	// overlap, so one is reused by every dispatch.
	sw sweep
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
		e.allocsLocked(l, queued)
		for o := range e.leases {
			o.lowerTargetLocked(o.share)
		}
		if free := e.capacity - e.held; free >= 1 && e.firstInLineLocked(l) {
			grant := clamp(l.share, 1, want)
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
// is already queued — and leaves each one's allocation in its share.
// Claimants are served smallest want first, each taking at most an equal
// split of what remains and never more than its want, so a width-1 plan
// build claims one lane (not a full 1/n share) and division remainders
// flow to the wider claimants instead of sitting idle. Over-subscription
// (more claimants than lanes) floors later shares at 0; callers clamp to
// the one lane a lease always keeps. The claimant list is the pool's
// own, so a dispatch allocates nothing here.
func (e *Elastic) allocsLocked(extra *Lease, queued bool) {
	claimants := e.claimants[:0]
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
	slices.SortFunc(claimants, func(a, b *Lease) int {
		if a.want != b.want {
			return a.want - b.want
		}
		return cmp.Compare(a.seq, b.seq)
	})
	remaining := e.capacity
	for i, o := range claimants {
		share := remaining / (len(claimants) - i)
		if share > o.want {
			share = o.want
		}
		o.share = share
		remaining -= share
	}
	// Keep the backing array, not the leases: a released one must not
	// stay reachable from the pool.
	clear(claimants)
	e.claimants = claimants[:0]
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

// settle moves the lease toward its allocation, clamped to one lane, its
// ceiling and limit (the sweep's item count: a lane beyond it finds no
// work), and returns its width before and after. At a ForRange dispatch
// (no workers running) it sheds lanes at once — revoked ones, or those a
// short sweep cannot use — and claims free ones. During a sweep, worker
// 0's poll only claims, and only once every revocation has settled
// (target == held: a revoked worker returns its lane before retiring, so
// equality means none are in flight); a lease already at the cap returns
// at once, since the allocation costs a sort.
func (l *Lease) settle(limit int, running bool) (from, to int) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if l.released {
		return 1, 1
	}
	from = l.held
	if running && (int(l.target.Load()) != l.held || l.held >= min(l.want, limit)) {
		return from, from
	}
	e.allocsLocked(nil, false)
	t := min(clamp(l.share, 1, l.want), limit)
	switch {
	case t < l.held && !running:
		e.held -= l.held - t
		l.held = t
		e.notifyLocked()
	case t > l.held:
		extra := min(t-l.held, e.capacity-e.held)
		l.held += extra
		e.held += extra
	}
	l.target.Store(int32(l.held))
	return from, l.held
}

// Granted returns the width this lease was admitted with (the quantity
// the per-request width histogram records).
func (l *Lease) Granted() int { return l.granted }

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
//     moment the pool goes idle. It grows only once every revocation
//     has settled: a worker is revoked only when its id is at or above
//     the target, so with target == held the workers still holding
//     lanes are exactly ids {0..held-1}, and the new ones take the ids
//     just above. Ids of workers that can still run fn thus always lie
//     below the width, and per-worker scratch (sized MaxWidth) never
//     collides.
//
// A sweep never holds more lanes than it has items: the lanes beyond
// them go back to the pool at dispatch, and regrowth stops there too.
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
	_, w := l.settle(n, false)
	// Grain by the lease's ceiling, not the momentary width: a shrunk
	// sweep keeps fine chunks, which is exactly when frequent boundaries
	// matter (regrowth polls and revocation checks ride on them). At
	// full width this matches the historical n/(w*8).
	maxW := l.want
	if maxW > n {
		maxW = n
	}
	s := &l.sw
	s.l, s.fn, s.lo, s.n, s.grain, s.done = l, fn, lo, n, grainFor(n, maxW), ctx.Done()
	s.next.Store(0)
	// Workers 1..w-1 are goroutines; worker 0 runs inline on the caller
	// (a width-1 sweep pays no goroutine at all until it grows).
	s.spawn(1, w)
	s.run(0)
	s.wg.Wait()
	panicked := s.panicked
	s.fn, s.done, s.panicked = nil, nil, nil
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}

// sweep is the state of one ForRange call, shared by its workers.
type sweep struct {
	l            *Lease
	fn           func(worker, i int)
	lo, n, grain int
	done         <-chan struct{}
	next         atomic.Int64 // the next unclaimed offset into [0, n)
	wg           sync.WaitGroup

	mu       sync.Mutex // guards panicked, the first panic of fn
	panicked any
}

// spawn starts the workers with ids from..to-1.
func (s *sweep) spawn(from, to int) {
	for wk := from; wk < to; wk++ {
		s.wg.Add(1)
		go s.worker(wk)
	}
}

// worker is the body of a worker goroutine.
func (s *sweep) worker(wk int) {
	defer s.wg.Done()
	s.run(wk)
}

// run claims and runs chunks as worker wk until the range is exhausted,
// the context is done or the worker's lane is revoked. A panic of fn is
// kept for ForRange to re-raise after the barrier.
func (s *sweep) run(wk int) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = r
			}
			s.mu.Unlock()
		}
	}()
	l, n, grain := s.l, int64(s.n), int64(s.grain)
	for {
		select {
		case <-s.done:
			return
		default:
		}
		if wk > 0 && wk >= int(l.target.Load()) {
			l.dropLane() // revoked
			return
		}
		// Only worker 0 polls for growth (it is never revoked, and one
		// poller bounds the lock traffic). Skip when too little work
		// remains for new lanes to help.
		if wk == 0 && n-s.next.Load() > grain {
			s.spawn(l.settle(s.n, true))
		}
		clo := s.next.Add(grain) - grain
		if clo >= n {
			return
		}
		chi := min(clo+grain, n)
		for i := s.lo + int(clo); i < s.lo+int(chi); i++ {
			s.fn(wk, i)
		}
	}
}
