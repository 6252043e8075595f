package wire

import (
	"math"
	"testing"
)

// FuzzReader drives the decode path with arbitrary payloads through a
// fixed read script shaped like the real frame decoders (scalars, word
// arrays, raw blobs). Invariants under fuzzing:
//
//   - never panic (the latched-error design must absorb any input);
//   - never allocate more than the payload itself for a word array
//     (the remaining-bytes bound caps every count);
//   - reads after an error return zero values and keep Err non-nil;
//   - a payload that decodes cleanly re-encodes to the bytes consumed
//     (round-trip identity on the valid subset).
//
// The seed corpus covers well-formed frames, truncations at every
// field boundary, and adversarial length words.
func FuzzReader(f *testing.F) {
	var valid Writer
	valid.U32(FrameMagic)
	valid.Raw([]byte(`{"k":"v"}`))
	valid.F64s([]float64{1, math.Inf(1), math.NaN()})
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(valid.Bytes()[:5])                                  // truncated inside the raw header
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])               // truncated inside the last array
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})   // 7 bytes: no full u64
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3})         // count 2^63
	f.Add(append([]byte{9, 0, 0, 0, 0, 0, 0, 0}, 1, 2, 3, 4)) // count 9, 4 bytes of words

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		magic := r.U32()
		raw := r.Raw()
		fs := r.F64s()
		err := r.Err()

		if len(raw) > len(data) || 8*len(fs) > len(data) {
			t.Fatalf("decoded more than the %d payload bytes: raw=%d f64s=%d", len(data), len(raw), len(fs))
		}
		if err != nil {
			// Latched: all subsequent reads are zero-valued.
			if r.U64() != 0 || r.F64s() != nil || r.Raw() != nil {
				t.Fatal("reads after a latched error returned non-zero values")
			}
			if r.Err() != ErrMalformed {
				t.Fatalf("latched error = %v, want ErrMalformed", r.Err())
			}
			return
		}
		// Clean decode: re-encoding what was read must reproduce the
		// consumed prefix byte for byte (bit-exact for float64 words).
		var w Writer
		w.U32(magic)
		w.Raw(raw)
		w.F64s(fs)
		consumed := data[:len(data)-r.Remaining()]
		if string(w.Bytes()) != string(consumed) {
			t.Fatalf("re-encode mismatch:\n got % x\nwant % x", w.Bytes(), consumed)
		}
	})
}
