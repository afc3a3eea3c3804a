package core

// Property tests for the per-cell path's two orderings: valleyOrder,
// which ranks a row's intervals and the search's windows, and
// sortCandidates, which puts extract's candidate IDs in ID order. Each is
// compared with the comparison sort it replaces.

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrlegal/internal/constraint"
	"mrlegal/internal/design"
	"mrlegal/internal/dtest"
)

// sortedOrder is the reference for valleyOrder: the indices of keys
// sorted by (key, index).
func sortedOrder(keys []float64) []int32 {
	out := make([]int32, len(keys))
	for i := range out {
		out[i] = int32(i)
	}
	slices.SortFunc(out, func(a, b int32) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}

// isValley is valleySplit's reference: some bottom index m has keys[:m+1]
// never rising and keys[m:] never falling.
func isValley(keys []float64) bool {
	for m := range keys {
		ok := true
		for i := 1; i <= m && ok; i++ {
			ok = keys[i] <= keys[i-1]
		}
		for i := m + 1; i < len(keys) && ok; i++ {
			ok = keys[i] >= keys[i-1]
		}
		if ok {
			return true
		}
	}
	return len(keys) == 0
}

// checkValleyOrder compares valleyOrder with the sort on keys and
// valleySplit's verdict with isValley's.
func checkValleyOrder(t *testing.T, keys []float64) {
	t.Helper()
	if _, ok := valleySplit(keys); ok != isValley(keys) {
		t.Fatalf("valleySplit(%v) ok = %v, want %v", keys, ok, !ok)
	}
	got := make([]int32, len(keys))
	valleyOrder(keys, got)
	if want := sortedOrder(keys); !slices.Equal(got, want) {
		t.Fatalf("valleyOrder(%v) = %v, want %v", keys, got, want)
	}
}

func TestValleyOrderCases(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		keys   []float64
		valley bool
	}{
		{nil, true},
		{[]float64{3}, true},
		{[]float64{1, 2}, true},
		{[]float64{2, 1}, true},
		{[]float64{1, 1}, true},
		{[]float64{3, 3, 2, 1, 4}, true},          // plateau on the falling side
		{[]float64{3, 1, 2, 2, 2, 5}, true},       // plateau on the rising side
		{[]float64{4, 1, 1, 1, 3}, true},          // plateau at the bottom
		{[]float64{2, 1, 0, 1, 2}, true},          // equal keys across the sides
		{[]float64{2, 2, 2, 0, 2, 2}, true},       // a left run tied with the right side
		{[]float64{5, 3, 3, 1, 3, 3, 5, 5}, true}, // ties everywhere
		{[]float64{0, 0, 0, 0}, true},
		{[]float64{0, 1, 2, 3}, true}, // all rising: the bottom is index 0
		{[]float64{3, 2, 1, 0}, true}, // all falling
		{[]float64{0, 6, 4, 10}, false},
		{[]float64{1, 2, 1}, false},
		{[]float64{3, 1, 2, 1}, false},
		{[]float64{1, nan}, false},
		{[]float64{nan, 1}, false},
		{[]float64{2, nan, 1, 3}, false},
	} {
		if _, ok := valleySplit(c.keys); ok != c.valley {
			t.Errorf("valleySplit(%v) ok = %v, want %v", c.keys, ok, c.valley)
		}
		checkValleyOrder(t, c.keys)
	}
}

// TestValleyOrderMatchesSort draws valleys and arbitrary sequences from
// a few key levels, so plateaus and ties across the two sides are common.
// Every valley must take the merge, every other sequence the sort, and
// both must give the sort's order.
func TestValleyOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	step := func(levels int) float64 {
		if rng.Intn(3) == 0 {
			return 0 // a plateau
		}
		return float64(rng.Intn(levels)) * 0.5
	}
	valleys, others := 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(24)
		keys := make([]float64, n)
		if trial%2 == 0 && n > 0 {
			// A valley: out from a random bottom, never falling.
			levels := 1 + rng.Intn(4)
			m := rng.Intn(n)
			keys[m] = float64(rng.Intn(3))
			for i := m - 1; i >= 0; i-- {
				keys[i] = keys[i+1] + step(levels)
			}
			for i := m + 1; i < n; i++ {
				keys[i] = keys[i-1] + step(levels)
			}
		} else {
			for i := range keys {
				keys[i] = float64(rng.Intn(4))
			}
		}
		if isValley(keys) {
			valleys++
		} else {
			others++
		}
		checkValleyOrder(t, keys)
	}
	if valleys < 5000 || others < 5000 {
		t.Fatalf("drew %d valleys and %d non-valleys; want both well covered", valleys, others)
	}
}

// TestRowDistancesFormValleysWithoutConstraints checks that the merge is
// the path a constraint-free search takes: every row's interval distances
// and the window bounds are valleys.
func TestRowDistancesFormValleysWithoutConstraints(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		d, _ := randomLegalDesign(seed)
		rng := rand.New(rand.NewSource(seed*7919 + 3))
		rows := d.NumRows()
		w := 1 + rng.Intn(5)
		h := 1 + rng.Intn(min(3, rows))
		tx := rng.Float64() * 45
		ty := rng.Float64() * float64(rows)
		id := dtest.Unplaced(d, w, h, tx, ty)
		l, err := NewLegalizer(d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := l.D.Cell(id)
		r := l.sc.extract(l.G, mllWindow(c, tx, ty, 50, rows))
		for rel, ivs := range r.buildIntervals(w) {
			keys := make([]float64, len(ivs))
			for i := range ivs {
				keys[i] = xDist(tx, ivs[i].Lo, ivs[i].Hi)
			}
			if _, ok := valleySplit(keys); !ok {
				t.Fatalf("seed %d: row %d distances %v are not a valley", seed, rel, keys)
			}
		}
		incumbent := math.Inf(1)
		r.searchBest(w, h, tx, ty, nil, &incumbent, func(*InsertionPoint) bool { return true })
		if _, ok := valleySplit(l.sc.winLB); !ok {
			t.Fatalf("seed %d: window bounds %v are not a valley", seed, l.sc.winLB)
		}
	}
}

// TestSearchBestSortsNonValleyRow plants a row whose class gaps make the
// target's interval distances rise, fall and rise again, so rankRow must
// take valleyOrder's sort inside the search; the search must still match
// the exhaustive sweep.
func TestSearchBestSortsNonValleyRow(t *testing.T) {
	d := dtest.Flat(1, 40)
	dtest.Placed(d, 3, 1, 10, 0) // wide: keeps 3 empty sites from a wide target
	dtest.Placed(d, 1, 1, 17, 0) // narrow: abuts anything
	dtest.Placed(d, 3, 1, 30, 0) // wide
	const tx, ty = 0.0, 0.0
	id := dtest.Unplaced(d, 3, 1, tx, ty)
	spacing, err := constraint.NewSpacing(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.NewSet(spacing)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PowerAlign = false
	cfg.Constraints = set
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
		l.armConstraints(sc, c, tx)
		r := sc.extract(l.G, mllWindow(c, tx, ty, l.Cfg.Rx, l.Cfg.Ry))
		ip, ev := l.bestInsertionPoint(r, c, tx, ty)
		out := bestFirstOutcome{found: ip != nil, evals: sc.stats.InsertionPoints}
		if ip != nil {
			out.cost, out.x, out.key = ev.Cost, ev.X, ipKey(ip)
		}
		return out
	}
	exh := run(true)
	bf := run(false)

	ivs := sc.rowIvs[0]
	keys := make([]float64, len(ivs))
	for i := range ivs {
		keys[i] = xDist(tx, ivs[i].Lo, ivs[i].Hi)
	}
	if _, ok := valleySplit(keys); ok {
		t.Fatalf("row distances %v form a valley; the case no longer reaches the sort", keys)
	}
	if !sc.ranked[0] {
		t.Fatal("the search never ranked row 0")
	}
	if want := sortedOrder(keys); !slices.Equal(sc.rowRank[0], want) {
		t.Fatalf("rowRank[0] = %v, want %v (distances %v)", sc.rowRank[0], want, keys)
	}
	if !exh.found || bf.found != exh.found || bf.cost != exh.cost || bf.x != exh.x || bf.key != exh.key || bf.evals > exh.evals {
		t.Fatalf("best-first %+v, exhaustive %+v", bf, exh)
	}
}

// TestSortCandidatesMatchesSort compares sortCandidates with slices.Sort
// on distinct IDs: counts from none to 1,000, and ID spans that need one,
// two, three and five radix passes.
func TestSortCandidatesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := newScratch()
	for _, span := range []int64{200, 60_000, 1 << 20, 1 << 40} {
		for _, n := range []int{0, 1, 2, 3, 7, 31, 32, 33, 64, 199, 1000} {
			if int64(n) > span {
				continue
			}
			for trial := 0; trial < 20; trial++ {
				base := rng.Int63n(1 << 30)
				seen := make(map[design.CellID]bool, n)
				ids := make([]design.CellID, 0, n)
				for len(ids) < n {
					id := design.CellID(base + rng.Int63n(span))
					if !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
				}
				want := slices.Clone(ids)
				slices.Sort(want)
				sc.candidates = append(sc.candidates[:0], ids...)
				sc.sortCandidates()
				if !slices.Equal(sc.candidates, want) {
					t.Fatalf("span %d, %d IDs: sortCandidates = %v, want %v", span, n, sc.candidates, want)
				}
			}
		}
	}
}
