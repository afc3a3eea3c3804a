package design

// PlacementChecksum returns the placement digest of the design: the sum,
// mod 2^64, of every cell's ChecksumTerm, dead and unplaced cells
// included. Two designs with the same roster have equal digests when
// their cells agree on (ID, X, Y, W, Orient, Placed, Dead); designs that
// differ collide only by chance, about once in 2^64.
//
// The sum is additive: changing one set of cells moves it by the new
// terms minus the old ones, whatever the rest of the design holds. An
// ECO session therefore keeps it current from its undo log, at the cost
// of the cells a batch touched (core.Session.PlacementChecksum), and
// jobs, checkpoints and tests compute it from scratch here. The mix is
// fixed and unkeyed: the digest guards integrity, not security, and
// anyone can build two placements with one digest on purpose.
func (d *Design) PlacementChecksum() uint64 {
	var sum uint64
	for i := range d.Cells {
		sum += d.Cells[i].ChecksumTerm()
	}
	return sum
}

// ChecksumTerm returns the cell's term of PlacementChecksum. It feeds
// five full 64-bit words through the splitmix64 finalizer, chained: ID,
// X, Y and W (each sign-extended) and Orient<<2 | Dead<<1 | Placed. Each
// step is a bijection of the running state for a fixed word and of the
// word for a fixed state, so two states of one cell that differ in a
// single field never share a term.
func (c *Cell) ChecksumTerm() uint64 {
	flags := uint64(c.Orient) << 2
	if c.Dead {
		flags |= 2
	}
	if c.Placed {
		flags |= 1
	}
	h := mix64(termSeed ^ uint64(c.ID))
	h = mix64(h ^ uint64(c.X))
	h = mix64(h ^ uint64(c.Y))
	h = mix64(h ^ uint64(c.W))
	return mix64(h ^ flags)
}

// termSeed starts every term away from mix64's fixed point at zero
// (splitmix64's increment, the 64-bit golden ratio).
const termSeed uint64 = 0x9e3779b97f4a7c15

// mix64 is splitmix64's finalizer, a bijection on 64-bit words in which
// every input bit reaches every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
