package translate

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
)

// Each test below uses a kernel parameter no other test touches, so the
// store entries it counts are its own.

// storeBytes sums the operator bytes the store holds for kernel k, held
// or idle.
func storeBytes(k kernels.Kernel) (b int64, entries int) {
	store.mu.Lock()
	defer store.mu.Unlock()
	for key, e := range store.entries {
		if key.kern == k {
			b += e.denseBytes.Load() + e.tensorBytes.Load()
			entries++
		}
	}
	return b, entries
}

// fill builds about 6.7 MB of operators at degree 6: every M2M and L2L of
// levels 2 and 3 (kernel matrices, the cheapest bytes to build) and one
// face of level-2 FFT tensors.
func fill(s *Set, f *FFTM2L) {
	for l := 2; l <= 3; l++ {
		for o := 0; o < 8; o++ {
			s.M2M(l, o)
			s.L2L(l, o)
		}
	}
	for y := -3; y <= 3; y++ {
		for z := -3; z <= 3; z++ {
			f.tensor(2, [3]int{3, y, z})
		}
	}
}

func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestStoreDropsClosedSets: twelve sets over distinct box sizes, each
// filled and closed, leave at most the retention in the store and on the
// heap — a closed set's operators really go.
func TestStoreDropsClosedSets(t *testing.T) {
	k := kernels.NewModLaplace(0.7310001)
	base := heapAlloc()
	var one, built int64
	for i := 0; i < 12; i++ {
		s, err := NewSet(k, 6, 1+0.01*float64(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		fill(s, f)
		one = s.CachedBytes() + f.CachedBytes()
		built += one
		s.Close()
		f.Close()
	}
	if built <= 2*retainBytes {
		t.Fatalf("test too small: built %d bytes against a retention of %d", built, int64(retainBytes))
	}
	resident, entries := storeBytes(k)
	if resident > retainBytes || resident == 0 {
		t.Errorf("store holds %d bytes in %d entries after every set closed, want in (0, %d]", resident, entries, int64(retainBytes))
	}
	if grew := heapAlloc() - base; grew > retainBytes+one {
		t.Errorf("heap grew %d bytes over twelve closed sets of %d each, want <= retention %d + one set", grew, one, int64(retainBytes))
	}
	// The newest release is the one kept warm: the same geometry maps the
	// same entry again and builds nothing.
	s, _ := NewSet(k, 6, 1+0.01*11, 0)
	defer s.Close()
	s.M2M(2, 0)
	if again, _ := storeBytes(k); again != resident {
		t.Errorf("re-mapping the last released geometry changed the store from %d to %d bytes", resident, again)
	}
}

// TestClosedSetMapsNothing: a closed set that touches a level it had not
// mapped builds it privately — same operator bits, no store entry.
func TestClosedSetMapsNothing(t *testing.T) {
	k := kernels.NewModLaplace(0.7310002)
	open, _ := NewSet(k, 4, 0.9, 0)
	want := open.UpwardPinv(3)
	wantT := NewFFTM2L(open).tensor(3, [3]int{2, 0, -3})
	open.Close()
	_, before := storeBytes(k)

	closed, _ := NewSet(k, 4, 1.3, 0)
	closed.Close()
	got := closed.UpwardPinv(3) // radius 1.3/8: not open's 0.9/8
	if got.M == want.M {
		t.Fatal("distinct box sizes must not share an operator")
	}
	if _, after := storeBytes(k); after != before {
		t.Errorf("a closed set left %d store entries behind", after-before)
	}
	if closed.CachedBytes() == 0 {
		t.Error("a closed set should still report the private operators it built")
	}

	// Same geometry as the released entry: the closed set reads it from
	// the store without holding it.
	same, _ := NewSet(k, 4, 0.9, 0)
	same.Close()
	if op := same.UpwardPinv(3); op.M != want.M {
		t.Error("a closed set over a stored geometry should find the stored operator")
	}
	gotT := NewFFTM2L(same).tensor(3, [3]int{2, 0, -3})
	if &gotT[0][0] != &wantT[0][0] {
		t.Error("a closed set over a stored geometry should find the stored tensor")
	}
	if e := same.entry(3); e.holders.Load() != 0 {
		t.Errorf("closed set holds its entry: holders = %d", e.holders.Load())
	}
}

// TestStoreConcurrentMapUseClose: many sets over one key are created,
// first-used and closed from several goroutines at once (the race
// detector's part). While an anchor set holds the entry every one of them
// sees the same operators and the holder count returns to the anchor's
// one; without the anchor the entry goes idle and comes back any number
// of times and ends idle, listed once.
func TestStoreConcurrentMapUseClose(t *testing.T) {
	k := kernels.NewModLaplace(0.7310003)
	anchor, _ := NewSet(k, 4, 0.6, 0)
	e := anchor.entry(2)
	churn := func(anchored bool) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				off, o := [3]int{2, g%3 - 1, -3}, g%8
				for i := 0; i < 20; i++ {
					s, err := NewSet(k, 4, 0.6, 0)
					if err != nil {
						t.Error(err)
						return
					}
					f := NewFFTM2L(s)
					up, m2m, l2l, ten := s.UpwardPinv(2), s.M2M(2, o), s.L2L(2, o), f.tensor(2, off)
					if anchored && (s.entry(2) != e || up.M != anchor.UpwardPinv(2).M || m2m.M != anchor.M2M(2, o).M ||
						l2l.M != anchor.L2L(2, o).M || &ten[0][0] != &NewFFTM2L(anchor).tensor(2, off)[0][0]) {
						t.Errorf("goroutine %d: set %d did not share the anchored entry", g, i)
					}
					if s.CachedBytes() <= 0 || f.CachedBytes() <= 0 {
						t.Errorf("goroutine %d: set %d reports no share", g, i)
					}
					s.Close()
					s.Close()
				}
			}(g)
		}
		wg.Wait()
	}
	churn(true)
	if h := e.holders.Load(); h != 1 {
		t.Errorf("holders = %d after every set but the anchor closed, want 1", h)
	}
	if got := anchor.CachedBytes(); got != e.denseBytes.Load() {
		t.Errorf("sole holder's share %d != entry's dense bytes %d", got, e.denseBytes.Load())
	}
	anchor.Close()
	churn(false)
	store.mu.Lock()
	defer store.mu.Unlock()
	listed := 0
	for _, o := range store.idle {
		if o == e {
			listed++
		}
	}
	if h := e.holders.Load(); h != 0 || listed != 1 || store.entries[e.key] != e {
		t.Errorf("after the churn: holders %d, idle listings %d, still the store's entry %v; want 0, 1, true",
			h, listed, store.entries[e.key] == e)
	}
}

// TestTensorBuildsPerOffset: a tensor builds under its offset's lock
// alone. While the entry's dense-operator lock is held a tensor still
// builds, and while one offset's build is held the dense operators and
// every other offset still build; lanes that race over the same cold
// offsets get one shared tensor per offset, counted once.
func TestTensorBuildsPerOffset(t *testing.T) {
	s, err := NewSet(kernels.NewModLaplace(0.7310004), 4, 0.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := NewFFTM2L(s)
	e := s.entry(2)
	finishes := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited behind a lock it does not need", what)
		}
	}
	e.mu.Lock()
	finishes("a tensor build", func() { f.tensor(2, [3]int{-3, 0, 0}) })
	e.mu.Unlock()
	_, mu := e.tensors.slot([3]int{3, 0, 0})
	mu.Lock()
	finishes("a dense operator build", func() { s.M2M(2, 1) })
	finishes("another offset's build", func() { f.tensor(2, [3]int{0, -3, 0}) })
	mu.Unlock()

	offs := [][3]int{{2, 1, 0}, {-2, 3, 1}, {0, 0, 3}, {3, -3, -3}}
	got := make([][][]complex128, 4*len(offs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range offs {
				j := (i + g) % len(offs)
				got[g*len(offs)+j] = f.tensor(2, offs[j])
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 4; g++ {
		for j := range offs {
			if &got[g*len(offs)+j][0][0] != &got[j][0][0] {
				t.Errorf("offset %v: lanes 0 and %d got different tensors", offs[j], g)
			}
		}
	}
	// The two built beside the held locks and the four raced.
	if want := int64(2+len(offs)) * int64(f.GridLen()) * 16; e.tensorBytes.Load() != want {
		t.Errorf("tensor bytes %d, want %d (each offset counted once)", e.tensorBytes.Load(), want)
	}
}
