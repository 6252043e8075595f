package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// TestGoldenFrames pins the byte-exact layout of every frame
// primitive. These fixtures are the wire contract shared by the
// cluster transport and the HTTP frame encoding: a change that breaks
// one of them breaks interoperability with every deployed node and
// client, so each expected string is spelled out by hand, not derived
// from the encoder under test.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		name  string
		build func(w *Writer)
		hex   string
	}{
		{"u32", func(w *Writer) { w.U32(0x01020304) }, "04030201"},
		{"u64", func(w *Writer) { w.U64(0x0102030405060708) }, "0807060504030201"},
		{"i64_negative", func(w *Writer) { w.I64(-2) }, "feffffffffffffff"},
		{"f64s_empty", func(w *Writer) { w.F64s(nil) }, "0000000000000000"},
		{
			// 1.0 = 0x3FF0000000000000, -2.5 = 0xC004000000000000.
			"f64s_values",
			func(w *Writer) { w.F64s([]float64{1, -2.5}) },
			"0200000000000000" + "000000000000f03f" + "00000000000004c0",
		},
		{
			// +Inf = 0x7FF0000000000000, -Inf = 0xFFF0000000000000,
			// quiet NaN with payload 1 = 0x7FF0000000000001, -0 =
			// 0x8000000000000000: the non-finite bit patterns JSON
			// cannot carry round-trip as plain words.
			"f64s_nonfinite",
			func(w *Writer) {
				w.F64s([]float64{
					math.Inf(1), math.Inf(-1),
					math.Float64frombits(0x7FF0000000000001),
					math.Copysign(0, -1),
				})
			},
			"0400000000000000" +
				"000000000000f07f" + "000000000000f0ff" +
				"010000000000f07f" + "0000000000000080",
		},
		{"raw", func(w *Writer) { w.Raw([]byte("hi")) }, "020000006869"},
		{
			// A composite frame in the HTTP body shape: magic, raw JSON
			// header, one word array.
			"http_frame",
			func(w *Writer) {
				w.U32(FrameMagic)
				w.Raw([]byte(`{}`))
				w.F64s([]float64{1})
			},
			"4b464d31" + "020000007b7d" + "0100000000000000" + "000000000000f03f",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Writer
			tc.build(&w)
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatalf("bad fixture hex: %v", err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("encoded % x, want % x", w.Bytes(), want)
			}
		})
	}
}

// TestFrameMagicSpellsKFM1: the HTTP magic must read "KFM1" in byte
// order, so a hexdump of a frame body is self-identifying.
func TestFrameMagicSpellsKFM1(t *testing.T) {
	var w Writer
	w.U32(FrameMagic)
	if got := string(w.Bytes()); got != "KFM1" {
		t.Fatalf("magic bytes %q, want \"KFM1\"", got)
	}
}

// TestRoundTrip drives every primitive through Writer and back through
// Reader, including bit-exact non-finite float64 values.
func TestRoundTrip(t *testing.T) {
	f := []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7FF00000DEADBEEF), math.Copysign(0, -1)}
	raw := []byte(`{"control":"plane"}`)

	var w Writer
	w.U32(FrameMagic)
	w.U64(1 << 40)
	w.I64(-5)
	w.F64s(f)
	w.Raw(raw)

	r := NewReader(w.Bytes())
	if got := r.U32(); got != FrameMagic {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -5 {
		t.Errorf("I64 = %d", got)
	}
	gf := r.F64s()
	if len(gf) != len(f) {
		t.Fatalf("F64s length %d, want %d", len(gf), len(f))
	}
	for i := range f {
		if math.Float64bits(gf[i]) != math.Float64bits(f[i]) {
			t.Errorf("F64s[%d] bits %#x, want %#x", i, math.Float64bits(gf[i]), math.Float64bits(f[i]))
		}
	}
	if got := r.Raw(); !bytes.Equal(got, raw) {
		t.Errorf("Raw = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after full round trip: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

// TestReaderMalformed: every truncation and oversized-length shape
// must latch ErrMalformed and return zero values, never panic or
// allocate per the corrupt length.
func TestReaderMalformed(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		read func(r *Reader)
	}{
		{"u32_truncated", []byte{1, 2}, func(r *Reader) { r.U32() }},
		{"u64_truncated", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"f64s_count_truncated", []byte{1, 0, 0}, func(r *Reader) { r.F64s() }},
		{
			// Count says 2^56 elements; payload has none. The decoder
			// must reject via the remaining-bytes bound, not allocate.
			"f64s_oversized_count",
			[]byte{0, 0, 0, 0, 0, 0, 0, 1},
			func(r *Reader) {
				if out := r.F64s(); out != nil {
					t.Errorf("oversized count decoded %d elements", len(out))
				}
			},
		},
		{
			// Count 2 but only one word present.
			"f64s_short_words",
			append([]byte{2, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 8)...),
			func(r *Reader) { r.F64s() },
		},
		{
			// A count whose byte size overflows int when multiplied:
			// 2^61 elements * 8 bytes = 2^64.
			"f64s_count_byte_overflow",
			[]byte{0, 0, 0, 0, 0, 0, 0, 0x20},
			func(r *Reader) { r.F64s() },
		},
		{"raw_oversized", []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}, func(r *Reader) { r.Raw() }},
		{"raw_truncated", []byte{5, 0, 0, 0, 'x'}, func(r *Reader) { r.Raw() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.b)
			tc.read(r)
			if err := r.Err(); err != ErrMalformed {
				t.Fatalf("Err = %v, want ErrMalformed", err)
			}
			// Latched: further reads stay zero and keep the error.
			if got := r.U64(); got != 0 {
				t.Errorf("read after latch = %d, want 0", got)
			}
			if r.Remaining() != 0 {
				t.Errorf("Remaining after latch = %d, want 0", r.Remaining())
			}
		})
	}
}

// TestWriterGrow: growing reserves capacity without changing content.
func TestWriterGrow(t *testing.T) {
	var w Writer
	w.U32(7)
	w.Grow(1 << 12)
	if cap(w.b)-len(w.Bytes()) < 1<<12 {
		t.Fatalf("Grow reserved %d bytes, want >= %d", cap(w.b)-len(w.Bytes()), 1<<12)
	}
	r := NewReader(w.Bytes())
	if got := r.U32(); got != 7 || r.Err() != nil {
		t.Fatalf("content changed by Grow: %d, %v", got, r.Err())
	}
}
