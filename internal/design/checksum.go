package design

import "math/bits"

// FNV-1a 64 parameters (hash/fnv is not used so the mix stays inlinable
// and allocation-free).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvPow[k] is fnvPrime64^k mod 2^64.
var fnvPow = func() (t [9]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * fnvPrime64
	}
	return t
}()

// PlacementChecksum returns an FNV-1a 64 digest of the placement state:
// for every cell, in ID order, the (ID, X, Y, Placed, Orient) tuple — the
// same fields the determinism tests compare byte for byte. Two designs
// with identical cell rosters have equal checksums exactly when their
// placements are identical, so the golden determinism suite pins one
// uint64 per benchmark instead of a full placement dump.
//
// The byte stream is four little-endian 8-byte words per cell: ID, X and
// Y (each sign-extended to 64 bits), then Orient<<1 | Placed. Each byte b
// updates the state as h = (h ^ b) * fnvPrime64.
func (d *Design) PlacementChecksum() uint64 {
	h := fnvOffset64
	for i := range d.Cells {
		c := &d.Cells[i]
		flags := uint64(c.Orient) << 1
		if c.Placed {
			flags |= 1
		}
		h = mixWord(h, uint64(c.ID))
		h = mixWord(h, uint64(c.X))
		h = mixWord(h, uint64(c.Y))
		h = mixWord(h, flags)
	}
	return h
}

// mixWord feeds the eight little-endian bytes of v to the FNV-1a state h.
// The step on a zero byte is a bare multiply by the prime p, and
// multiplication mod 2^64 is associative, so the k zero bytes above v's
// last significant byte cost one multiply by p^k, which folds into that
// byte's own multiply: one step by p^(k+1). A word below 2^16 takes two
// dependent steps instead of eight.
func mixWord(h, v uint64) uint64 {
	if v < 1<<16 {
		return ((h^v&0xff)*fnvPrime64 ^ v>>8) * fnvPow[7]
	}
	n := (bits.Len64(v) + 7) >> 3 // significant bytes, 3..8
	for i := 1; i < n; i++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return (h ^ v) * fnvPow[9-n]
}
