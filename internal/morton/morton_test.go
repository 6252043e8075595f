package morton

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := func(ix, iy, iz uint32) bool {
		ix &= (1 << MaxLevel) - 1
		iy &= (1 << MaxLevel) - 1
		iz &= (1 << MaxLevel) - 1
		k := Encode(MaxLevel, ix, iy, iz)
		gx, gy, gz := k.Decode()
		return gx == ix && gy == iy && gz == iz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ancestor returns the key of k's enclosing box at the coarser level.
func ancestor(k Key, level uint8) Key {
	return Key{Level: level, Bits: k.Bits >> (3 * uint(k.Level-level))}
}

func TestParentChildInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		level := uint8(1 + rng.Intn(MaxLevel-1))
		k := Encode(level, rng.Uint32()%(1<<level), rng.Uint32()%(1<<level), rng.Uint32()%(1<<level))
		if ancestor(k, level-1).Child(k.Octant()) != k {
			t.Fatalf("parent's Child(Octant()) != self for %+v", k)
		}
		for o := 0; o < 8; o++ {
			c := k.Child(o)
			if ancestor(c, level) != k {
				t.Fatalf("child %d of %+v has wrong parent", o, k)
			}
			if c.Octant() != o {
				t.Fatalf("child octant mismatch")
			}
		}
	}
}

func TestChildCoordinates(t *testing.T) {
	k := Encode(2, 1, 2, 3)
	// Child octant bit layout: bit2 = x, bit1 = y, bit0 = z.
	c := k.Child(0b101)
	ix, iy, iz := c.Decode()
	if ix != 3 || iy != 4 || iz != 7 {
		t.Errorf("child coords: got (%d,%d,%d) want (3,4,7)", ix, iy, iz)
	}
}

func TestLessIsStrictWeakOrderAndDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]Key, 100)
	for i := range keys {
		level := uint8(rng.Intn(6))
		keys[i] = Encode(level, rng.Uint32()%(1<<level), rng.Uint32()%(1<<level), rng.Uint32()%(1<<level))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for i := 1; i < len(keys); i++ {
		if keys[i].Less(keys[i-1]) {
			t.Fatal("sort produced out-of-order pair")
		}
	}
	// An ancestor always precedes its descendants in DFS order.
	a := Encode(2, 1, 1, 1)
	if !a.Less(a.Child(7)) || a.Child(7).Less(a) {
		t.Error("ancestor must order before descendant")
	}
	// Z-order within a level: sibling octants ascend.
	for o := 0; o < 7; o++ {
		if !a.Child(o).Less(a.Child(o + 1)) {
			t.Errorf("sibling order broken at octant %d", o)
		}
	}
}

func TestPointKeyLocality(t *testing.T) {
	c := [3]float64{0, 0, 0}
	// Two points in the same octant share the level-1 ancestor.
	k1 := ancestor(PointKey(0.5, 0.5, 0.5, c, 1), 1)
	k2 := ancestor(PointKey(0.9, 0.1, 0.3, c, 1), 1)
	if k1 != k2 {
		t.Error("points in the same octant must share the level-1 key")
	}
	k3 := ancestor(PointKey(-0.5, 0.5, 0.5, c, 1), 1)
	if k1 == k3 {
		t.Error("points in different octants must differ at level 1")
	}
}

func TestPointKeyClampsBoundary(t *testing.T) {
	c := [3]float64{0, 0, 0}
	k := PointKey(1, 1, 1, c, 1)
	ix, iy, iz := k.Decode()
	max := uint32(1<<MaxLevel - 1)
	if ix != max || iy != max || iz != max {
		t.Errorf("upper boundary must clamp to last cell, got (%d,%d,%d)", ix, iy, iz)
	}
	k = PointKey(-2, -2, -2, c, 1) // outside: clamp to 0
	ix, iy, iz = k.Decode()
	if ix != 0 || iy != 0 || iz != 0 {
		t.Errorf("below-domain points must clamp to cell 0, got (%d,%d,%d)", ix, iy, iz)
	}
}

func TestPartitionBalancesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]Weighted, 200)
	total := int64(0)
	for i := range items {
		w := int64(1 + rng.Intn(50))
		items[i] = Weighted{
			Key:    PointKey(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1, [3]float64{}, 1),
			Weight: w,
			Index:  i,
		}
		total += w
	}
	for _, parts := range []int{1, 2, 3, 7, 16} {
		got := Partition(items, parts)
		if len(got) != parts {
			t.Fatalf("want %d parts, got %d", parts, len(got))
		}
		seen := map[int]bool{}
		for p, idxs := range got {
			w := int64(0)
			for _, idx := range idxs {
				if seen[idx] {
					t.Fatalf("item %d assigned twice", idx)
				}
				seen[idx] = true
				w += items[idx].Weight
			}
			avg := total / int64(parts)
			if parts > 1 && w > 2*avg+50 {
				t.Errorf("part %d/%d overloaded: %d vs avg %d", p, parts, w, avg)
			}
		}
		if len(seen) != len(items) {
			t.Fatalf("partition dropped items: %d of %d", len(seen), len(items))
		}
	}
}

func TestPartitionPreservesMortonContiguity(t *testing.T) {
	items := []Weighted{}
	for i := 0; i < 64; i++ {
		items = append(items, Weighted{Key: Encode(2, uint32(i/16), uint32(i/4%4), uint32(i%4)), Weight: 1, Index: i})
	}
	parts := Partition(items, 4)
	// Each part must be a contiguous run of the Morton-sorted order.
	last := Key{}
	first := true
	for _, p := range parts {
		for _, idx := range p {
			k := items[idx].Key
			if !first && k.Less(last) {
				t.Fatal("parts are not contiguous along the Morton curve")
			}
			last, first = k, false
		}
	}
}

func TestPartitionSinglePartAndPanics(t *testing.T) {
	items := []Weighted{{Weight: 1, Index: 0}}
	got := Partition(items, 1)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Error("single part must hold everything")
	}
	defer func() {
		if recover() == nil {
			t.Error("parts < 1 must panic")
		}
	}()
	Partition(items, 0)
}
