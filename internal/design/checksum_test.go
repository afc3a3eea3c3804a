package design

import (
	"math"
	"math/rand"
	"testing"
)

// referenceTerm is ChecksumTerm written out plainly: starting from
// splitmix64's increment, each of the five words is xored into the state,
// which then runs through the three xor-shift and two multiply steps of
// splitmix64's finalizer.
func referenceTerm(c *Cell) uint64 {
	var flags uint64
	if c.Placed {
		flags += 1
	}
	if c.Dead {
		flags += 2
	}
	flags += 4 * uint64(c.Orient)
	words := []uint64{uint64(int64(c.ID)), uint64(int64(c.X)), uint64(int64(c.Y)), uint64(int64(c.W)), flags}
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		z := h ^ w
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		h = z
	}
	return h
}

// randInt draws an int from a random bit length, signed half the time,
// or now and then one of the extremes.
func randInt(r *rand.Rand) int {
	switch r.Intn(16) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return -1
	}
	v := int(r.Uint64() >> r.Intn(64))
	if r.Intn(2) == 0 {
		return -v
	}
	return v
}

// TestPlacementChecksumMatchesReference compares PlacementChecksum with
// the sum of referenceTerm on 20,000 fixed-seed random rosters whose
// fields span every bit length, huge and negative coordinates, widths
// and IDs included, and every Orient, Placed and Dead value. It also
// pins mix64 to splitmix64's published first output for seed 0.
func TestPlacementChecksumMatchesReference(t *testing.T) {
	if got := mix64(termSeed); got != 0xe220a8397b1dcdaf {
		t.Fatalf("mix64(termSeed) = %#x, want splitmix64's first output 0xe220a8397b1dcdaf", got)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		cells := make([]Cell, 1+r.Intn(12))
		var want uint64
		for j := range cells {
			c := &cells[j]
			c.ID = CellID(randInt(r))
			c.X, c.Y, c.W = randInt(r), randInt(r), randInt(r)
			c.Orient = Orient(r.Intn(256))
			c.Placed, c.Dead = r.Intn(2) == 0, r.Intn(4) == 0
			if got, ref := c.ChecksumTerm(), referenceTerm(c); got != ref {
				t.Fatalf("iteration %d cell %d: term %#x, reference %#x on %+v", i, j, got, ref, *c)
			}
			want += referenceTerm(c)
		}
		d := &Design{Cells: cells}
		if got := d.PlacementChecksum(); got != want {
			t.Fatalf("iteration %d: checksum %#x, reference %#x on %+v", i, got, want, cells)
		}
	}
}

// TestPlacementChecksumABI pins the digests of hand-built designs, so the
// definition itself (seed, mix, field order, widths, flag bits) cannot
// drift along with the reference. The resized and deleted designs are
// the base design after a one-site shrink of cell 1 and after deleting
// cell 0; all four digests must differ.
func TestPlacementChecksumABI(t *testing.T) {
	base := func() []Cell {
		return []Cell{
			{ID: 0, X: 5, Y: 1, W: 3, Placed: true, Orient: FS},
			{ID: 1, X: 300, Y: 2, W: 4, Placed: true},
			{ID: 2, W: 2},
		}
	}
	resized, deleted := base(), base()
	resized[1].W--
	deleted[0] = Cell{ID: 0, W: 3, Dead: true, Orient: FS}
	cases := []struct {
		name  string
		cells []Cell
		want  uint64
	}{
		{"base", base(), 0x7e1afa709f5b197b},
		{"resized", resized, 0xc7dbc6ce5111205b},
		{"deleted", deleted, 0x90eecc0cf49a2af3},
		{"negative x, id above 2^16", []Cell{
			{ID: 70000, X: -7, Y: 3, W: 2, Placed: true},
			{ID: 70001, X: 12, Y: 0, W: 5, Orient: FS},
		}, 0x19d945342ed59b45},
	}
	seen := map[uint64]string{}
	for _, tc := range cases {
		d := &Design{Cells: tc.cells}
		got := d.PlacementChecksum()
		if got != tc.want {
			t.Errorf("%s: checksum %#016x, want %#016x", tc.name, got, tc.want)
		}
		if prev, ok := seen[got]; ok {
			t.Errorf("%s and %s share the digest %#016x", prev, tc.name, got)
		}
		seen[got] = tc.name
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
