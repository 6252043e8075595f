package kernels

import (
	"encoding/json"
	"math"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, k := range []Kernel{
		Laplace{},
		NewModLaplace(2.5),
		NewStokes(0.7),
		NewKelvin(2, 0.25),
	} {
		spec, err := SpecFor(k)
		if err != nil {
			t.Fatalf("SpecFor(%s): %v", k.Name(), err)
		}
		got, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%s): %v", k.Name(), err)
		}
		if got != k {
			t.Errorf("round trip %s: got %#v, want %#v", k.Name(), got, k)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := SpecFor(NewKelvin(3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	k, err := FromSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if k != NewKelvin(3, 0.4) {
		t.Errorf("JSON round trip changed kernel: %#v", k)
	}
}

// normalize round-trips a spec through the kernel it describes, the
// way production code canonicalizes client-submitted specs.
func normalize(t *testing.T, s Spec) Spec {
	t.Helper()
	k, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SpecFor(k)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSpecCanonical(t *testing.T) {
	a := normalize(t, Spec{Name: "stokes"})
	b := normalize(t, Spec{Name: "stokes", Params: map[string]float64{"mu": 1}})
	if a.Canonical() != b.Canonical() {
		t.Errorf("normalized canonical mismatch: %q vs %q", a.Canonical(), b.Canonical())
	}
	c := normalize(t, Spec{Name: "stokes", Params: map[string]float64{"mu": 2}})
	if c.Canonical() == a.Canonical() {
		t.Errorf("different parameters share canonical form %q", a.Canonical())
	}
	// -0.0 and +0.0 parameters describe the same kernel and must share
	// a canonical form.
	negZero := Spec{Name: "kelvin", Params: map[string]float64{"mu": 1, "nu": math.Copysign(0, -1)}}
	posZero := Spec{Name: "kelvin", Params: map[string]float64{"mu": 1, "nu": 0}}
	if negZero.Canonical() != posZero.Canonical() {
		t.Errorf("-0.0 and +0.0 canonicalize differently: %q vs %q",
			negZero.Canonical(), posZero.Canonical())
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []Spec{
		{Name: "nope"},
		{Name: "laplace", Params: map[string]float64{"mu": 1}},
		{Name: "modlaplace", Params: map[string]float64{"lambda": -1}},
		{Name: "stokes", Params: map[string]float64{"mu": 0}},
		{Name: "kelvin", Params: map[string]float64{"nu": 0.8}},
		{Name: "modlaplace", Params: map[string]float64{"lambda": math.NaN()}},
		{Name: "kelvin", Params: map[string]float64{"mu": math.NaN()}},
	}
	for _, s := range cases {
		if _, err := FromSpec(s); err == nil {
			t.Errorf("FromSpec(%+v): want error, got nil", s)
		}
	}
}
