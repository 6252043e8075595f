package kifmm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/fmm"
	"repro/internal/kernels"
)

// KernelSpec is the serializable description of a built-in kernel
// (name plus parameters), the wire format used by the evaluation
// service; see internal/kernels.Spec.
type KernelSpec = kernels.Spec

// KernelSpecFor serializes a built-in kernel so it can be reconstructed
// elsewhere with KernelFromSpec.
func KernelSpecFor(k Kernel) (KernelSpec, error) { return kernels.SpecFor(k) }

// KernelFromSpec reconstructs a kernel from its serialized description.
func KernelFromSpec(s KernelSpec) (Kernel, error) { return kernels.FromSpec(s) }

// PlanKey returns a content hash identifying a prepared Evaluator: two
// calls agree exactly when NewEvaluatorCtx(ctx, src, trg, opt) would
// build an identical plan. The hash covers the source and target geometry, the
// kernel (by serialized spec, so parameters count), the degree and the
// tree options; option zero values hash as their defaults. The
// pseudo-inverse cut is not an option: translate.NewSet decides it. The
// evaluation service uses this as its plan-cache key.
func PlanKey(src, trg []float64, opt Options) (string, error) {
	if opt.Kernel == nil {
		return "", fmt.Errorf("kifmm: PlanKey requires Options.Kernel")
	}
	spec, err := kernels.SpecFor(opt.Kernel)
	if err != nil {
		return "", err
	}
	opt = fmm.ApplyDefaults(opt) // zero-valued and explicit-default options: one key
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	// Geometry is hashed in multi-KiB chunks: the key is recomputed on
	// every request (cache hits included), and per-coordinate 8-byte
	// Writes would dominate SHA-256 throughput on large point sets.
	chunk := make([]byte, 0, 4096)
	writeF64s := func(vs []float64) {
		for _, v := range vs {
			if v == 0 {
				v = 0 // collapse -0.0 onto +0.0: identical geometry, one key
			}
			chunk = binary.LittleEndian.AppendUint64(chunk, math.Float64bits(v))
			if len(chunk) == cap(chunk) {
				h.Write(chunk)
				chunk = chunk[:0]
			}
		}
		h.Write(chunk)
		chunk = chunk[:0]
	}
	h.Write([]byte("kifmm-plan-v1\x00"))
	h.Write([]byte(spec.Canonical()))
	h.Write([]byte{0})
	writeInt(opt.Degree)
	writeInt(opt.MaxPoints)
	writeInt(opt.MaxDepth)
	writeInt(len(src))
	writeF64s(src)
	writeInt(len(trg))
	writeF64s(trg)
	return hex.EncodeToString(h.Sum(nil)), nil
}
