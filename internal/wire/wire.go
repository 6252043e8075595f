// Package wire implements the repository's shared binary wire
// conventions: length-prefixed little-endian word arrays for bulk
// float64 data, u32/u64/i64 scalar headers, and raw
// length-prefixed byte blobs for control-plane payloads (JSON side
// channels).
//
// Two layers speak this format: the cluster transport
// (internal/cluster) frames every worker↔coordinator and
// worker↔worker message with it, and the HTTP API
// (internal/service, content type application/x-kifmm-frame)
// transfers bulk coordinate/density/potential arrays with it so the
// hot path never touches JSON.
//
// Layout rules:
//
//   - all integers are little-endian;
//   - a word array is a u64 element count followed by the packed
//     8-byte words, float64 as IEEE 754 bits — every bit pattern
//     round-trips, including NaN payloads and infinities (int64 data
//     travels as such words too);
//   - a raw blob is a u32 byte length followed by the bytes;
//   - decoders bound every length by the bytes actually remaining, so
//     a corrupt length can never trigger a large allocation, and latch
//     the first violation — callers check Err once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// MaxFrameBytes bounds a single frame (1 GiB: tens of millions of
// points of coordinate data; anything beyond is a protocol error, not
// a workload).
const MaxFrameBytes = 1 << 30

// FrameMagic opens every application/x-kifmm-frame HTTP body: "KFM1"
// as a little-endian u32. The cluster transport does not use it (frame
// types are discriminated by the connection handshake); the HTTP side
// does, so a misrouted JSON or gzip body fails fast with a clear
// error instead of a confusing length mismatch.
const FrameMagic uint32 = 0x314D464B // "KFM1"

// ErrMalformed is the uniform decode failure: a length field pointing
// past the payload, a truncated word array, or any read past the end.
// Decoders latch it on first violation; wrap it for context.
var ErrMalformed = errors.New("wire: malformed payload")

// Writer assembles a frame payload by appending primitives. The zero
// value is ready to use.
type Writer struct {
	b []byte
}

// Bytes returns the assembled payload.
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the assembled payload size in bytes.
func (w *Writer) Len() int { return len(w.b) }

// Grow pre-allocates capacity for n more bytes, so a caller that knows
// the bulk size up front avoids append doublings.
func (w *Writer) Grow(n int) {
	if cap(w.b)-len(w.b) < n {
		nb := make([]byte, len(w.b), len(w.b)+n)
		copy(nb, w.b)
		w.b = nb
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64s appends a float64 word array: u64 count + IEEE 754 bits per
// element. Non-finite values round-trip bit-exactly.
func (w *Writer) F64s(v []float64) {
	w.U64(uint64(len(v)))
	off := len(w.b)
	w.b = append(w.b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(w.b[off+8*i:], math.Float64bits(x))
	}
}

// Raw appends a length-prefixed byte blob (u32 length + bytes): the
// control-plane escape hatch for JSON headers riding inside a binary
// frame.
func (w *Writer) Raw(v []byte) {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// Reader decodes a frame payload. Out-of-bounds reads latch an error
// and return zero values, so decoders run straight-line and check Err
// once at the end.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader returns a Reader over payload b. The Reader aliases b; it
// never copies, and word-array reads allocate exactly the decoded
// slice.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns ErrMalformed if any read ran past the payload or hit an
// invalid length, nil otherwise.
func (r *Reader) Err() error {
	if r.bad {
		return ErrMalformed
	}
	return nil
}

// Remaining returns the undecoded byte count (0 once latched bad).
func (r *Reader) Remaining() int {
	if r.bad {
		return 0
	}
	return len(r.b) - r.off
}

func (r *Reader) take(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64s reads a float64 word array. Bit patterns are preserved exactly
// (NaN payloads, infinities, signed zeros). The element count is bounded
// by the bytes remaining, so a corrupt length cannot trigger a huge
// allocation.
func (r *Reader) F64s() []float64 {
	n := r.U64()
	if r.bad || n > uint64(len(r.b)-r.off)/8 {
		r.bad = true
		return nil
	}
	raw := r.take(8 * int(n))
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Raw reads a length-prefixed byte blob. The returned slice aliases
// the payload; copy it if it must outlive the frame buffer.
func (r *Reader) Raw() []byte {
	n := r.U32()
	if r.bad || uint64(n) > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	return r.take(int(n))
}
