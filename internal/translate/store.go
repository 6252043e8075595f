package translate

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/linalg"
)

// retainBytes bounds the operators the store keeps for nobody: entries
// whose last holder closed stay, newest release first, while they fit in
// it, and the most recently released entry stays whatever its size. That
// is what keeps the unit entry of a homogeneous kernel warm between jobs
// that each build and close their own engine (a cluster rank, a harness
// row, a service whose only plan of a kernel was just evicted).
const retainBytes = 32 << 20

// storeKey identifies an entry: operators depend only on the kernel, the
// surface degree, the pseudo-inverse truncation and the box half-width.
// All built-in kernels are comparable value types, so they key a map
// directly.
type storeKey struct {
	kern   kernels.Kernel
	p      int
	tol    float64
	radius float64
}

// entry holds every operator of one key: the dense ones and the FFT
// kernel tensors. Operators appear on first use and never change
// afterwards.
type entry struct {
	key storeKey
	// holders counts the open Sets that mapped this entry; written under
	// store.mu, read by CachedBytes.
	holders atomic.Int64
	// denseBytes and tensorBytes are the data sizes built so far.
	denseBytes, tensorBytes atomic.Int64

	// mu serializes builds (so the lanes of a first evaluation do not all
	// build the same operator) and guards the plain pointers below; the
	// two offset tables are read without it.
	mu sync.Mutex
	// pinvUp (UC check potential -> UE equivalent density) comes from the
	// entry's one factorization; pinvDown (DC check potential -> DE
	// equivalent density) is its transpose, stored row-major like every
	// operator so that applying it walks rows. Set.pinvs fills both at once.
	pinvUp   *linalg.Dense
	pinvDown *linalg.Dense
	m2m      [8]*linalg.Dense
	l2l      [8]*linalg.Dense
	m2l      offsetTable[linalg.Dense]
	tensors  offsetTable[[][]complex128]
}

// offsetTable holds one value per V-list offset, (k+3) in base 7. The
// V-list sweep fetches an operator per (target, source) pair from every
// lane, so a filled slot costs one atomic load.
type offsetTable[T any] [7 * 7 * 7]atomic.Pointer[T]

func (t *offsetTable[T]) slot(k [3]int) *atomic.Pointer[T] {
	x, y, z := uint(k[0]+3), uint(k[1]+3), uint(k[2]+3)
	if x >= 7 || y >= 7 || z >= 7 {
		panic(fmt.Sprintf("translate: %v is not a V-list offset", k))
	}
	return &t[(x*7+y)*7+z]
}

// store is the process's one operator cache: plans over the same kernel,
// degree, truncation and box size — every evaluator of a benchmark sweep,
// every rank of a distributed run, every plan of a service — share one
// entry, so its one expensive factorization runs once. An entry stays
// while a Set holds it and, after that, while it fits the retention.
var store = struct {
	mu      sync.Mutex
	entries map[storeKey]*entry
	idle    []*entry // entries without a holder, oldest release first
}{entries: map[storeKey]*entry{}}

// acquire returns the store's entry for k, creating it if needed, and
// counts the caller as a holder. With hold false — a closed Set touching a
// level it had not mapped — nothing is counted or inserted: the caller
// gets the store's entry if there is one and a private one otherwise.
func acquire(k storeKey, hold bool) *entry {
	store.mu.Lock()
	defer store.mu.Unlock()
	e := store.entries[k]
	if !hold {
		if e == nil {
			e = &entry{key: k}
		}
		return e
	}
	if e == nil {
		e = &entry{key: k}
		store.entries[k] = e
	}
	if e.holders.Add(1) == 1 {
		if i := slices.Index(store.idle, e); i >= 0 {
			store.idle = slices.Delete(store.idle, i, i+1)
		}
	}
	return e
}

// release drops one hold on each entry and then applies the retention:
// the newest idle entry stays, older ones stay while the total fits
// retainBytes, the rest leave the store (a closed Set still using one
// keeps its pointer; the memory goes with the last of those).
func release(held []*entry) {
	store.mu.Lock()
	defer store.mu.Unlock()
	for _, e := range held {
		if e.holders.Add(-1) == 0 {
			store.idle = append(store.idle, e)
		}
	}
	var b int64
	for i := len(store.idle) - 1; i >= 0; i-- {
		e := store.idle[i]
		b += e.denseBytes.Load() + e.tensorBytes.Load()
		if b > retainBytes && i < len(store.idle)-1 {
			for _, d := range store.idle[:i+1] {
				delete(store.entries, d.key)
			}
			store.idle = append([]*entry(nil), store.idle[i+1:]...)
			return
		}
	}
}
