package design

import (
	"math"
	"math/rand"
	"testing"
)

// referenceChecksum is the byte-at-a-time definition of PlacementChecksum:
// 32 dependent xor-multiply steps per cell. PlacementChecksum must return
// its value on every design.
//
// The golden suites cannot stand in for this comparison. They run at
// scale 800, where every design has fewer than 2^16 cells and small
// non-negative coordinates, so every field there takes the kernel's fast
// path; IDs of 2^16 and above and negative or wide coordinates, which take
// the general path, are reached only here.
func referenceChecksum(d *Design) uint64 {
	h := fnvOffset64
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		mix(uint64(c.ID))
		mix(uint64(int64(c.X)))
		mix(uint64(int64(c.Y)))
		flags := uint64(c.Orient) << 1
		if c.Placed {
			flags |= 1
		}
		mix(flags)
	}
	return h
}

// randWord returns a value with exactly class significant bytes (0–8).
// Each byte below the top one is zero a quarter of the time, so zero
// bytes inside the significant run are common.
func randWord(r *rand.Rand, class int) uint64 {
	if class == 0 {
		return 0
	}
	var v uint64
	for i := 0; i < class-1; i++ {
		if r.Intn(4) != 0 {
			v |= uint64(r.Intn(256)) << (8 * i)
		}
	}
	return v | uint64(1+r.Intn(255))<<(8*(class-1))
}

// signed negates v half the time; a negative value sign-extends to eight
// significant bytes.
func signed(r *rand.Rand, v uint64) int {
	if r.Intn(2) == 0 {
		return -int(v)
	}
	return int(v)
}

// randCoord draws a coordinate of a random byte-length class, or now and
// then one of the extremes.
func randCoord(r *rand.Rand) int {
	switch r.Intn(16) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return -1
	}
	return signed(r, randWord(r, r.Intn(9)))
}

// TestPlacementChecksumMatchesReference compares the kernel with the
// byte loop on 20,000 fixed-seed random rosters. Iteration i takes its
// first cell's ID, X and Y byte-length classes from the base-9 digits of
// i mod 729, so every class triple occurs, and its first cell's
// (Placed, Orient) pair from i mod 512, so every pair occurs; later cells
// draw theirs at random, extremes included. One roster in four (i mod 4
// = 3) takes consecutive IDs that cross 2^8, 2^16 or 2^24 in place of
// the drawn ones; as 729 is 1 mod 4, every class triple still occurs in
// the other three.
func TestPlacementChecksumMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		n := 1 + r.Intn(12)
		base := -1
		if i%4 == 3 {
			n++ // at least two IDs, one on each side of the boundary
			base = 1<<(8*(1+r.Intn(3))) - 1 - r.Intn(n-1)
		}
		cells := make([]Cell, n)
		for j := range cells {
			c := &cells[j]
			if j == 0 {
				c.ID = CellID(randWord(r, i%9))
				c.X, c.Y = signed(r, randWord(r, i/9%9)), signed(r, randWord(r, i/81%9))
				c.Orient, c.Placed = Orient(i%256), i/256%2 == 1
			} else {
				c.ID = CellID(randWord(r, r.Intn(9)))
				c.X, c.Y = randCoord(r), randCoord(r)
				c.Orient, c.Placed = Orient(r.Intn(256)), r.Intn(2) == 0
			}
			if base >= 0 {
				c.ID = CellID(base + j)
			}
			c.Dead = r.Intn(8) == 0
		}
		d := &Design{Cells: cells}
		if got, want := d.PlacementChecksum(), referenceChecksum(d); got != want {
			t.Fatalf("iteration %d: checksum %#x, reference %#x on %+v", i, got, want, cells)
		}
	}
}

// TestPlacementChecksumABI pins the digests of three hand-built designs,
// so the definition itself (offset, prime, field order, widths) cannot
// drift along with the reference.
func TestPlacementChecksumABI(t *testing.T) {
	cases := []struct {
		name  string
		cells []Cell
		want  uint64
	}{
		{"ordinary", []Cell{
			{ID: 0, X: 5, Y: 1, Placed: true, Orient: FS},
			{ID: 1, X: 300, Y: 2, Placed: true},
			{ID: 2, Dead: true},
		}, 0xad5c2938e97b31d5},
		{"negative x", []Cell{
			{ID: 0, X: -7, Y: 3, Placed: true},
			{ID: 1, X: 12, Y: 0, Orient: FS},
		}, 0xd24844a8e96a8176},
		{"id above 2^16", []Cell{
			{ID: 70000, X: 12, Y: 0, Placed: true, Orient: FS},
		}, 0x05f6894b085c7e4c},
	}
	for _, tc := range cases {
		d := &Design{Cells: tc.cells}
		if got := d.PlacementChecksum(); got != tc.want {
			t.Errorf("%s: checksum %#016x, want %#016x", tc.name, got, tc.want)
		}
		if ref := referenceChecksum(d); ref != tc.want {
			t.Errorf("%s: reference %#016x, want %#016x", tc.name, ref, tc.want)
		}
	}
}

func TestPlacementChecksumAllocs(t *testing.T) {
	cells := make([]Cell, 1000)
	for i := range cells {
		cells[i] = Cell{ID: CellID(i * 97), X: i*31 - 500, Y: i % 200, Placed: i%3 != 0, Orient: Orient(i % 2)}
	}
	d := &Design{Cells: cells}
	if n := testing.AllocsPerRun(100, func() { _ = d.PlacementChecksum() }); n != 0 {
		t.Fatalf("PlacementChecksum allocates %v times per call", n)
	}
}
