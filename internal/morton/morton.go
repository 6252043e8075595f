// Package morton implements 3-D Morton (Z-order) keys and the
// Morton-curve partitioning used by the paper (Section 3.1) to split
// surface patches into equal-weight processor groups, following
// Warren & Salmon's hashed octree addressing.
//
// A Key packs (level, ix, iy, iz) into a uint64: the low 63 bits hold the
// interleaved cell coordinates at MaxLevel, and keys at coarser levels
// are identified by their (level, anchor) pair. Keys at the same level
// sort in Z-order; a parent's key prefix contains its descendants'.
package morton

// MaxLevel is the deepest octree level representable: 3*21 = 63 bits.
const MaxLevel = 21

// Key identifies an octree box by its level and interleaved anchor
// coordinates. The zero Key is the root box.
type Key struct {
	// Level is the box depth; the root is level 0.
	Level uint8
	// Bits holds the Morton-interleaved cell coordinates of the box
	// anchor at resolution Level (3*Level significant bits).
	Bits uint64
}

// Encode builds the key of the box at the given level containing cell
// (ix, iy, iz), where coordinates are in [0, 2^level).
func Encode(level uint8, ix, iy, iz uint32) Key {
	return Key{Level: level, Bits: spread(ix)<<2 | spread(iy)<<1 | spread(iz)}
}

// Decode returns the cell coordinates of the key's anchor.
func (k Key) Decode() (ix, iy, iz uint32) {
	return compact(k.Bits >> 2), compact(k.Bits >> 1), compact(k.Bits)
}

// Child returns the key of child octant o (0..7) one level down. Octant
// bit 2 selects x, bit 1 selects y, bit 0 selects z, matching Encode.
func (k Key) Child(o int) Key {
	if o < 0 || o > 7 {
		panic("morton: child octant out of range")
	}
	if k.Level >= MaxLevel {
		panic("morton: child below MaxLevel")
	}
	return Key{Level: k.Level + 1, Bits: k.Bits<<3 | uint64(o)}
}

// Octant returns which child of its parent this key is.
func (k Key) Octant() int { return int(k.Bits & 7) }

// Less orders keys by depth-first (pre-order) traversal position, which
// coincides with Z-order along each level. Boxes are compared by aligning
// both keys to the finer level; ancestors order before descendants.
func (k Key) Less(o Key) bool {
	ka, oa := k.Bits, o.Bits
	if k.Level < o.Level {
		ka <<= 3 * uint(o.Level-k.Level)
	} else {
		oa <<= 3 * uint(k.Level-o.Level)
	}
	if ka != oa {
		return ka < oa
	}
	return k.Level < o.Level
}

// PointKey returns the key of the leaf-level (MaxLevel) cell containing
// the point p inside the cube of half-width hw centered at c. Points on
// the upper boundary are clamped into the last cell.
func PointKey(px, py, pz float64, c [3]float64, hw float64) Key {
	return Encode(MaxLevel, cellCoord(px, c[0], hw), cellCoord(py, c[1], hw), cellCoord(pz, c[2], hw))
}

func cellCoord(v, c, hw float64) uint32 {
	const cells = 1 << MaxLevel
	f := (v - c + hw) / (2 * hw) // in [0,1]
	i := int64(f * cells)
	if i < 0 {
		i = 0
	}
	if i >= cells {
		i = cells - 1
	}
	return uint32(i)
}

// spread inserts two zero bits between each of the low 21 bits of v.
func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact is the inverse of spread on every third bit.
func compact(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return uint32(x)
}
