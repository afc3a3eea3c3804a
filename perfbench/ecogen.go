package main

import (
	"math"
	"math/rand"

	"mrlegal/internal/design"
	"mrlegal/internal/service"
)

// Frame sizes of eco_stream. Most frames carry the 20 deltas of an
// interactive edit; one frame in every ecoBlock, at a seeded position,
// carries a 400-delta batch, such as a buffer-insertion sweep. With 2% of
// frames large, the p99 tail falls amid the large frames' latencies, so it
// measures the engine's slow frames rather than the host's scheduling
// stalls, which decide the p99 of uniform 5 ms frames (README.md,
// "Steadiness").
const (
	smallFrame = 20
	largeFrame = 400
	ecoBlock   = 50
)

// ecoGen generates the seeded delta stream of eco_stream. It mirrors the
// session's cell roster: inserted cells take the next cell ID, deleted
// cells leave the live set and are never targeted again. The session
// validates a whole frame before applying it, so a cell inserted in a
// frame becomes a target only from the next frame on.
type ecoGen struct {
	rng     *rand.Rand
	frames  int         // frames generated so far
	large   int         // position of this block's large frame
	live    []int       // live movable cell IDs
	slot    map[int]int // cell ID → index in live
	home    [][2]float64
	base    []int // width at creation, sites
	width   []int // current width
	height  []int
	lib     []design.Master
	dieW    float64
	dieRows float64
}

// newEcoGen starts a generator over d's cells (all movable and live).
func newEcoGen(d *design.Design, seed int64) *ecoGen {
	b := d.Bounds()
	g := &ecoGen{
		rng:     rand.New(rand.NewSource(seed)),
		slot:    map[int]int{},
		lib:     d.Lib,
		dieW:    float64(b.X2()),
		dieRows: float64(b.Y2()),
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		id := g.add(c.GX, c.GY, c.W, c.H)
		if !c.Fixed && !c.Dead {
			g.makeLive(id)
		}
	}
	return g
}

// add registers the next cell ID.
func (g *ecoGen) add(x, y float64, w, h int) int {
	g.home = append(g.home, [2]float64{x, y})
	g.base = append(g.base, w)
	g.width = append(g.width, w)
	g.height = append(g.height, h)
	return len(g.home) - 1
}

// makeLive lets later deltas target a cell.
func (g *ecoGen) makeLive(id int) {
	g.slot[id] = len(g.live)
	g.live = append(g.live, id)
}

// remove drops a cell from the live set.
func (g *ecoGen) remove(id int) {
	i := g.slot[id]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.slot[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.slot, id)
}

func (g *ecoGen) pick() int { return g.live[g.rng.Intn(len(g.live))] }

// near returns a target within ±20 sites and ±4 rows of (x, y), clamped
// so a w×h cell fits on the die.
func (g *ecoGen) near(x, y float64, w, h int) (float64, float64) {
	x += float64(g.rng.Intn(41) - 20)
	y += float64(g.rng.Intn(9) - 4)
	x = math.Min(math.Max(x, 0), g.dieW-float64(w))
	y = math.Min(math.Max(y, 0), g.dieRows-float64(h))
	return x, y
}

// frame returns the next frame's deltas: 70% moves, 10% resizes, 10%
// inserts and 10% deletes, shuffled. Equal insert and delete counts keep
// the live cell count constant.
func (g *ecoGen) frame() []service.DeltaJSON {
	if g.frames%ecoBlock == 0 {
		g.large = g.rng.Intn(ecoBlock)
	}
	n := smallFrame
	if g.frames%ecoBlock == g.large {
		n = largeFrame
	}
	g.frames++
	ops := make([]string, 0, n)
	for _, k := range []struct {
		op    string
		tenth int
	}{{"move", 7}, {"resize", 1}, {"insert", 1}, {"delete", 1}} {
		for i := 0; i < k.tenth*n/10; i++ {
			ops = append(ops, k.op)
		}
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	out := make([]service.DeltaJSON, 0, len(ops))
	var inserted []int
	for _, op := range ops {
		dj := service.DeltaJSON{Op: op}
		switch op {
		case "move":
			id := g.pick()
			x, y := g.near(g.home[id][0], g.home[id][1], g.width[id], g.height[id])
			dj.Cell, dj.X, dj.Y = &id, &x, &y
		case "resize":
			// Alternate between the creation width and one site more or
			// less, so widths stay within ±1 of the original.
			id := g.pick()
			w := g.base[id]
			if g.width[id] == w {
				if w > 1 && g.rng.Intn(2) == 0 {
					w--
				} else {
					w++
				}
			}
			g.width[id] = w
			dj.Cell, dj.W = &id, &w
		case "insert":
			mi := g.rng.Intn(len(g.lib))
			m := &g.lib[mi]
			ref := g.pick()
			x, y := g.near(g.home[ref][0], g.home[ref][1], m.Width, m.Height)
			inserted = append(inserted, g.add(x, y, m.Width, m.Height))
			dj.Master, dj.X, dj.Y = &mi, &x, &y
		case "delete":
			id := g.pick()
			g.remove(id)
			dj.Cell = &id
		}
		out = append(out, dj)
	}
	for _, id := range inserted {
		g.makeLive(id)
	}
	return out
}
