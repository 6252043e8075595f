package kernels

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/errs"
)

// Spec is a serializable description of a built-in kernel: its name plus
// the numeric parameters needed to reconstruct it. It is the wire format
// used by the evaluation service so a client can name a kernel (with
// non-default parameters) and the server can rebuild the identical
// Kernel value.
type Spec struct {
	// Name is the kernel identifier accepted by ByName.
	Name string `json:"name"`
	// Params holds the kernel parameters by field name (e.g. "lambda"
	// for modlaplace, "mu" for stokes, "mu"/"nu" for kelvin). Missing
	// entries take the defaults lambda = 1, mu = 1, nu = 0.3.
	Params map[string]float64 `json:"params,omitempty"`
}

// FromSpec reconstructs a kernel from its serialized description.
// Unknown names and parameters are errors, as are out-of-domain values
// (the typed constructors panic on those; FromSpec validates first).
func FromSpec(s Spec) (Kernel, error) {
	get := func(key string, def float64) float64 {
		if v, ok := s.Params[key]; ok {
			return v
		}
		return def
	}
	for key, v := range s.Params {
		if !validParam(s.Name, key) {
			return nil, fmt.Errorf("kernels: kernel %q has no parameter %q", s.Name, key)
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("kernels: kernel %q parameter %q is NaN", s.Name, key)
		}
	}
	switch s.Name {
	case "laplace":
		return Laplace{}, nil
	case "modlaplace":
		lambda := get("lambda", 1)
		if lambda <= 0 {
			return nil, fmt.Errorf("kernels: modlaplace requires lambda > 0, got %v", lambda)
		}
		return NewModLaplace(lambda), nil
	case "stokes":
		mu := get("mu", 1)
		if mu <= 0 {
			return nil, fmt.Errorf("kernels: stokes requires mu > 0, got %v", mu)
		}
		return NewStokes(mu), nil
	case "kelvin":
		mu, nu := get("mu", 1), get("nu", 0.3)
		if mu <= 0 {
			return nil, fmt.Errorf("kernels: kelvin requires mu > 0, got %v", mu)
		}
		if nu <= -1 || nu > 0.5 {
			return nil, fmt.Errorf("kernels: kelvin requires nu in (-1, 1/2], got %v", nu)
		}
		return NewKelvin(mu, nu), nil
	default:
		return nil, errs.Newf(errs.CodeUnknownKernel, "kernels: unknown kernel %q", s.Name)
	}
}

func validParam(kernel, param string) bool {
	switch kernel {
	case "modlaplace":
		return param == "lambda"
	case "stokes":
		return param == "mu"
	case "kelvin":
		return param == "mu" || param == "nu"
	}
	return false
}

// SpecFor returns the serialized description of a built-in kernel, so
// that FromSpec(SpecFor(k)) reconstructs an identical kernel. Kernels
// outside this package are not serializable.
func SpecFor(k Kernel) (Spec, error) {
	switch k := k.(type) {
	case Laplace:
		return Spec{Name: "laplace"}, nil
	case ModLaplace:
		return Spec{Name: "modlaplace", Params: map[string]float64{"lambda": k.Lambda}}, nil
	case Stokes:
		return Spec{Name: "stokes", Params: map[string]float64{"mu": k.Mu}}, nil
	case Kelvin:
		return Spec{Name: "kelvin", Params: map[string]float64{"mu": k.Mu, "nu": k.Nu}}, nil
	default:
		return Spec{}, fmt.Errorf("kernels: kernel %q is not serializable", k.Name())
	}
}

// Canonical returns a deterministic string encoding of the spec
// (parameters sorted by name, full float precision, -0.0 collapsed onto
// +0.0), suitable as a cache-key component: two SpecFor-produced specs
// describing the same kernel produce the same string.
func (s Spec) Canonical() string {
	var b strings.Builder
	b.WriteString(s.Name)
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := s.Params[k]
		if v == 0 {
			v = 0
		}
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	return b.String()
}
