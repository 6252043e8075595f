package kifmm

import (
	"reflect"
	"testing"
)

func somePoints(n int) []float64 {
	pts := make([]float64, 3*n)
	for i := range pts {
		pts[i] = float64(i%17)/17 - 0.5
	}
	return pts
}

func TestPlanKeyDeterministic(t *testing.T) {
	pts := somePoints(50)
	a, err := PlanKey(pts, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanKey(append([]float64(nil), pts...), append([]float64(nil), pts...), Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical inputs hashed differently: %s vs %s", a, b)
	}
}

func TestPlanKeyNormalizesDefaults(t *testing.T) {
	pts := somePoints(50)
	zero, err := PlanKey(pts, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := PlanKey(pts, pts, Options{
		Kernel: Laplace(), Degree: 6, MaxPoints: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zero != explicit {
		t.Errorf("zero-value options hash differently from explicit defaults")
	}
}

func TestPlanKeyMatchesBuildCoercion(t *testing.T) {
	// Options that the construction path coerces to the same evaluator
	// must hash to the same key: tree.BuildCtx treats MaxPoints <= 0 as 60
	// and clamps MaxDepth to (0, 21].
	pts := somePoints(50)
	base, err := PlanKey(pts, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	equivalent := []Options{
		{Kernel: Laplace(), MaxPoints: -1},
		{Kernel: Laplace(), MaxDepth: 21},
		{Kernel: Laplace(), MaxDepth: 9999},
	}
	for i, opt := range equivalent {
		key, err := PlanKey(pts, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if key != base {
			t.Errorf("variant %d (%+v) hashes differently from defaults despite building the same evaluator", i, opt)
		}
	}
}

func TestPlanKeyDiscriminates(t *testing.T) {
	pts := somePoints(50)
	base, err := PlanKey(pts, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{Kernel: ModLaplace(1)},
		{Kernel: ModLaplace(2)},
		{Kernel: Laplace(), Degree: 8},
		{Kernel: Laplace(), MaxPoints: 120},
		{Kernel: Laplace(), MaxDepth: 3},
	}
	seen := map[string]int{base: -1}
	for i, opt := range variants {
		key, err := PlanKey(pts, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[key] = i
	}
	// Different geometry must change the key too.
	moved := append([]float64(nil), pts...)
	moved[0] += 1e-9
	key, err := PlanKey(moved, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	if key == base {
		t.Errorf("perturbed geometry did not change the plan key")
	}
}

// planKeyHashedOptionFields and planKeyResultNeutralOptionFields
// together must name every field of Options: the first lists fields
// PlanKey hashes, the second fields deliberately excluded because they
// cannot change what an evaluator computes (Workers and Pool are pure
// scheduling: lanes only partition per-box work across goroutines;
// results are bitwise identical for every granted width, and hashing
// them would fragment the plan cache by machine size and process
// wiring). TestPlanKeyCoversOptions fails when a new Options field is
// in neither list, so it cannot silently miss the hash.
var (
	planKeyHashedOptionFields = []string{
		"Kernel", "Degree", "MaxPoints", "MaxDepth",
	}
	planKeyResultNeutralOptionFields = []string{"Workers", "Pool"}
)

// TestPlanKeyCoversOptions guards the plan-key hash against silently
// missing a future Options field: every field must be declared either
// hashed (and wired into PlanKey) or result-neutral (like Workers,
// which cannot change what an evaluator computes).
func TestPlanKeyCoversOptions(t *testing.T) {
	declared := map[string]string{}
	for _, f := range planKeyHashedOptionFields {
		declared[f] = "hashed"
	}
	for _, f := range planKeyResultNeutralOptionFields {
		if _, dup := declared[f]; dup {
			t.Fatalf("field %s declared both hashed and result-neutral", f)
		}
		declared[f] = "result-neutral"
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := declared[name]; !ok {
			t.Errorf("Options.%s is in neither planKeyHashedOptionFields nor planKeyResultNeutralOptionFields; decide whether PlanKey must hash it", name)
		}
		delete(declared, name)
	}
	for name := range declared {
		t.Errorf("declared plan-key field %s does not exist on Options", name)
	}
}

// TestPlanKeyIgnoresWorkers: evaluation concurrency is not plan
// identity — hashing it would fragment the cache by machine size.
func TestPlanKeyIgnoresWorkers(t *testing.T) {
	pts := somePoints(50)
	base, err := PlanKey(pts, pts, Options{Kernel: Laplace()})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 97} {
		key, err := PlanKey(pts, pts, Options{Kernel: Laplace(), Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if key != base {
			t.Errorf("Workers=%d changed the plan key", w)
		}
	}
	// Pool is scheduling policy too: an explicit pool must hash like the
	// process default.
	key, err := PlanKey(pts, pts, Options{Kernel: Laplace(), Pool: NewPool(3)})
	if err != nil {
		t.Fatal(err)
	}
	if key != base {
		t.Error("an explicit Pool changed the plan key")
	}
}

func TestPlanKeyErrors(t *testing.T) {
	pts := somePoints(10)
	if _, err := PlanKey(pts, pts, Options{}); err == nil {
		t.Errorf("nil kernel: want error")
	}
}
