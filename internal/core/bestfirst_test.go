package core

import (
	"math/rand"
	"testing"

	"mrlegal/internal/dtest"
)

// bestFirstOutcome captures everything the equivalence property compares
// about one bestInsertionPoint call.
type bestFirstOutcome struct {
	found bool
	cost  float64
	x     int
	key   string
	evals int64
}

// checkBestFirstEquivalence builds a random legal region plus an unplaced
// target from seed and requires the best-first search to return exactly
// the exhaustive sweep's answer — same cost bits, same target x, same
// insertion point (tie-break included) — while evaluating no more
// candidates.
func checkBestFirstEquivalence(t testing.TB, seed int64, exact, align bool) {
	d, _ := randomLegalDesign(seed)
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	rows := d.NumRows()
	w := 1 + rng.Intn(5)
	h := 1 + rng.Intn(min(3, rows))
	tx := rng.Float64() * 45
	ty := rng.Float64() * float64(rows)
	id := dtest.Unplaced(d, w, h, tx, ty)

	cfg := DefaultConfig()
	cfg.ExactEval = exact
	cfg.PowerAlign = align
	l, err := NewLegalizer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := l.D.Cell(id)
	sc := l.sc

	run := func(exhaustive bool) bestFirstOutcome {
		l.Cfg.ExhaustiveSearch = exhaustive
		l.resetCancel(sc)
		sc.stats = Stats{}
		r := sc.extract(l.G, mllWindow(c, tx, ty, 50, rows))
		ip, ev := l.bestInsertionPoint(r, c, tx, ty)
		out := bestFirstOutcome{found: ip != nil, evals: sc.stats.InsertionPoints}
		if ip != nil {
			out.cost, out.x, out.key = ev.Cost, ev.X, ipKey(ip)
		}
		return out
	}

	exh := run(true)
	bf := run(false)
	if exh.found != bf.found {
		t.Fatalf("seed %d exact=%v align=%v: exhaustive found=%v, best-first found=%v",
			seed, exact, align, exh.found, bf.found)
	}
	if !exh.found {
		return
	}
	if bf.cost != exh.cost || bf.x != exh.x || bf.key != exh.key {
		t.Fatalf("seed %d exact=%v align=%v: best-first diverged:\nexhaustive cost=%v x=%d ip=%s\nbest-first cost=%v x=%d ip=%s",
			seed, exact, align, exh.cost, exh.x, exh.key, bf.cost, bf.x, bf.key)
	}
	if bf.evals > exh.evals {
		t.Fatalf("seed %d exact=%v align=%v: best-first evaluated %d candidates, exhaustive only %d",
			seed, exact, align, bf.evals, exh.evals)
	}
}

// TestBestFirstMatchesExhaustiveProperty is the main equivalence property
// for the lower-bound search: over random regions, both eval modes and
// both power-alignment settings, the pruned search must reproduce the
// exhaustive sweep's choice exactly.
func TestBestFirstMatchesExhaustiveProperty(t *testing.T) {
	trials := int64(150)
	if testing.Short() {
		trials = 40
	}
	for seed := int64(0); seed < trials; seed++ {
		for _, exact := range []bool{false, true} {
			for _, align := range []bool{false, true} {
				checkBestFirstEquivalence(t, seed, exact, align)
			}
		}
	}
}

// TestBestFirstPrunesSomething guards the perf claim behind the rewrite:
// across the property corpus the search must actually cut work, not just
// match the exhaustive answer (a bound that never fires would pass the
// equivalence property while evaluating everything).
func TestBestFirstPrunesSomething(t *testing.T) {
	var bf, exh int64
	d, _ := randomLegalDesign(3)
	rows := d.NumRows()
	for i := 0; i < 30; i++ {
		seed := int64(i)
		rng := rand.New(rand.NewSource(seed*1000003 + 7))
		w := 1 + rng.Intn(5)
		h := 1 + rng.Intn(min(3, rows))
		tx := rng.Float64() * 45
		ty := rng.Float64() * float64(rows)
		id := dtest.Unplaced(d, w, h, tx, ty)
		cfg := DefaultConfig()
		cfg.PowerAlign = false
		l, err := NewLegalizer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := l.D.Cell(id)
		sc := l.sc
		for _, exhaustive := range []bool{false, true} {
			l.Cfg.ExhaustiveSearch = exhaustive
			l.resetCancel(sc)
			sc.stats = Stats{}
			r := sc.extract(l.G, mllWindow(c, tx, ty, 50, rows))
			l.bestInsertionPoint(r, c, tx, ty)
			if exhaustive {
				exh += sc.stats.InsertionPoints
			} else {
				bf += sc.stats.InsertionPoints
			}
		}
	}
	if bf >= exh {
		t.Fatalf("best-first evaluated %d candidates vs %d exhaustive; pruning never fired", bf, exh)
	}
}

// FuzzBestFirstMatchesExhaustive fuzzes the equivalence property over the
// seed/mode space. CI runs it with a short -fuzztime smoke budget; the
// seed corpus mirrors the property test's coverage.
func FuzzBestFirstMatchesExhaustive(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, false, false)
		f.Add(seed, true, false)
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, exact, align bool) {
		checkBestFirstEquivalence(t, seed, exact, align)
	})
}
