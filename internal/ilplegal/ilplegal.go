// Package ilplegal formulates the local legalization problem as a
// mixed-integer linear program and solves it with internal/ilp, exactly as
// the paper's §6 baseline replaced MLL with "a procedure of constructing
// and solving the ILP problem with an open-source ILP solver, lpsolve".
//
// The model is the same one MLL solves (§2 objective and constraints with
// the §4 restrictions: local cells keep their rows and their relative
// order per segment; the target picks a row and a horizontal position):
//
//   - one continuous position variable per local cell, bounded by its
//     segments' extents, plus split |displacement| variables;
//   - fixed-order chain constraints x_a + w_a ≤ x_b per segment;
//   - for each candidate target row, one binary per local cell sharing a
//     row with the target, selecting its side, with big-M disjunctions
//     (x_c + w_c ≤ x_t  or  x_t + w_t ≤ x_c);
//   - objective: Σ|x_c − x_c⁰| + |x_t − x'_t| in site widths (the target's
//     row cost is added per candidate row outside the LP).
//
// One MILP is solved per candidate bottom row; the best row wins. The
// binaries of the winning solution identify an insertion point, which is
// realized through the shared core machinery at its exact optimal x.
package ilplegal

import (
	"math"
	"sort"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/ilp"
)

// sortByYCost orders candidate rows by ascending vertical cost with a
// stable deterministic tie-break.
func sortByYCost(cands []int, yCost func(int) float64) {
	sort.SliceStable(cands, func(i, j int) bool {
		ci, cj := yCost(cands[i]), yCost(cands[j])
		if ci != cj {
			return ci < cj
		}
		return cands[i] < cands[j]
	})
}

// Solver implements core.LocalSolver with the MILP formulation.
type Solver struct {
	// MaxNodes bounds branch & bound per MILP (0 = ilp default).
	MaxNodes int

	// Stats accumulate across calls.
	Problems  int   // MILPs solved
	Nodes     int64 // total branch & bound nodes
	Optimal   int   // MILPs solved to proven optimality
	NonOptRet int   // node-limit (Feasible) results used
}

var _ core.LocalSolver = (*Solver)(nil)

// SelectInsertionPoint solves one MILP per allowed candidate row and
// returns the overall best insertion point and target x.
func (s *Solver) SelectInsertionPoint(r *core.Region, c *design.Cell, tx, ty float64, allowRow func(int) bool) (*core.InsertionPoint, int, bool) {
	d := r.D
	hW := len(r.Segs)
	bestCost := math.Inf(1)
	var bestIP *core.InsertionPoint
	bestX := 0

	// Candidate rows in ascending vertical cost, so the y-cost lower
	// bound prunes most MILPs once an incumbent exists.
	cands := make([]int, 0, hW)
	for t := 0; t+c.H <= hW; t++ {
		cands = append(cands, t)
	}
	yCost := func(t int) float64 {
		return math.Abs(float64(r.AbsRow(t))-ty) * float64(d.SiteH) / float64(d.SiteW)
	}
	sortByYCost(cands, yCost)
	rowCells := make([][]design.CellID, hW)
	for rel := range r.Segs {
		rowCells[rel] = r.RowCells(rel)
	}

	for _, t := range cands {
		if allowRow != nil && !allowRow(r.AbsRow(t)) {
			continue
		}
		if yCost(t) >= bestCost {
			continue // the vertical cost alone already loses
		}
		ok := true
		for k := 0; k < c.H; k++ {
			if !r.Segs[t+k].Valid || r.Segs[t+k].Span.Len() < c.W {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		gaps, obj, solved := s.solveRow(r, rowCells, c, t, tx)
		if !solved {
			continue
		}
		// Add the target's vertical displacement for this row.
		cost := obj + yCost(t)
		if cost < bestCost {
			ip, okIP := r.BuildInsertionPoint(t, gaps, c.W)
			if !okIP {
				continue
			}
			// Use the exact evaluator to pin the optimal integer x for
			// this insertion point (the MILP's x_t can sit on a
			// fractional plateau; the realized cost is identical).
			ev := r.EvaluateExact(ip, c.W, tx, ty)
			if !ev.OK {
				continue
			}
			bestCost = cost
			bestIP = ip
			bestX = ev.X
		}
	}
	if bestIP == nil {
		return nil, 0, false
	}
	return bestIP, bestX, true
}

// solveRow builds and solves the MILP for target bottom row (relative) t;
// rowCells[rel] holds row rel's local cells in x order (Region.RowCells).
// It returns the per-row gap indices of the optimal configuration and the
// objective in site widths.
func (s *Solver) solveRow(r *core.Region, rowCells [][]design.CellID, c *design.Cell, t int, tx float64) (gaps []int, obj float64, ok bool) {
	// Model only the rows coupled to the target band: pushes propagate
	// across rows exclusively through multi-row cells, so rows reachable
	// from [t, t+h) via multi-row row-spans (transitive closure) fully
	// determine the optimum — cells on all other rows provably keep their
	// positions. This shrinks the LPs by 3-10× on typical windows.
	inRow := make([]bool, len(r.Segs))
	for k := 0; k < c.H; k++ {
		inRow[t+k] = true
	}
	for changed := true; changed; {
		changed = false
		for rel := range r.Segs {
			if !inRow[rel] || !r.Segs[rel].Valid {
				continue
			}
			for _, id := range rowCells[rel] {
				info, _ := r.Info(id)
				for h := 0; h < info.H; h++ {
					rr := info.Y + h - r.Win.Y
					if !inRow[rr] {
						inRow[rr] = true
						changed = true
					}
				}
			}
		}
	}
	seen := make(map[design.CellID]bool)
	var locals []design.CellID
	for rel := range r.Segs {
		if !inRow[rel] || !r.Segs[rel].Valid {
			continue
		}
		for _, id := range rowCells[rel] {
			if !seen[id] {
				seen[id] = true
				locals = append(locals, id)
			}
		}
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
	n := len(locals)

	// Variable layout: [0,n) cell positions; [n,2n) p; [2n,3n) n;
	// 3n target x; 3n+1 target p; 3n+2 target n; [3n+3, ...) binaries.
	xVar := func(i int) int { return i }
	pVar := func(i int) int { return n + i }
	nVar := func(i int) int { return 2*n + i }
	xT := 3 * n
	pT := 3*n + 1
	nT := 3*n + 2

	// Cells sharing a row with the target band get a side binary.
	idxOf := make(map[design.CellID]int, n)
	for i, id := range locals {
		idxOf[id] = i
	}
	band := make([]int, 0, n) // indices into locals
	inBand := make([]bool, n)
	for k := 0; k < c.H; k++ {
		for _, id := range rowCells[t+k] {
			i := idxOf[id]
			if !inBand[i] {
				inBand[i] = true
				band = append(band, i)
			}
		}
	}
	oVar := make(map[int]int, len(band)) // locals index → binary var
	nv := 3*n + 3
	for _, i := range band {
		oVar[i] = nv
		nv++
	}

	p := ilp.NewProblem(nv)
	if s.MaxNodes > 0 {
		p.MaxNodes = s.MaxNodes
	}

	// Cell variables: bounds from their segments, |disp| split, objective.
	cellBounds := make([][2]float64, n)
	for i, id := range locals {
		info, _ := r.Info(id)
		cl, cu := math.Inf(-1), math.Inf(1)
		for h := 0; h < info.H; h++ {
			rel := info.Y + h - r.Win.Y
			sp := r.Segs[rel].Span
			cl = math.Max(cl, float64(sp.Lo))
			cu = math.Min(cu, float64(sp.Hi-info.W))
		}
		cellBounds[i] = [2]float64{cl, cu}
		p.SetBounds(xVar(i), cl, cu)
		p.SetObjCoef(pVar(i), 1)
		p.SetObjCoef(nVar(i), 1)
		// x_i − x⁰_i = p_i − n_i
		p.AddConstraint([]ilp.Term{{Var: xVar(i), Coef: 1}, {Var: pVar(i), Coef: -1}, {Var: nVar(i), Coef: 1}}, ilp.EQ, float64(info.X))
	}

	// Target bounds across its band rows.
	tl, tu := math.Inf(-1), math.Inf(1)
	for k := 0; k < c.H; k++ {
		sp := r.Segs[t+k].Span
		tl = math.Max(tl, float64(sp.Lo))
		tu = math.Min(tu, float64(sp.Hi-c.W))
	}
	if tl > tu {
		return nil, 0, false
	}
	p.SetBounds(xT, tl, tu)
	p.SetObjCoef(pT, 1)
	p.SetObjCoef(nT, 1)
	p.AddConstraint([]ilp.Term{{Var: xT, Coef: 1}, {Var: pT, Coef: -1}, {Var: nT, Coef: 1}}, ilp.EQ, tx)

	// Fixed-order chains per segment (deduplicated across rows).
	type pair struct{ a, b int }
	seenPair := make(map[pair]bool)
	for rel := range r.Segs {
		if !inRow[rel] {
			continue
		}
		cells := rowCells[rel]
		for k := 1; k < len(cells); k++ {
			a, b := idxOf[cells[k-1]], idxOf[cells[k]]
			if seenPair[pair{a, b}] {
				continue
			}
			seenPair[pair{a, b}] = true
			wa, _ := r.Info(cells[k-1])
			p.AddConstraint([]ilp.Term{{Var: xVar(a), Coef: 1}, {Var: xVar(b), Coef: -1}}, ilp.LE, -float64(wa.W))
		}
	}

	// Side disjunctions for band cells:
	//   o=1 (left):  x_i + w_i ≤ x_t + M₁(1−o)
	//   o=0 (right): x_t + w_t ≤ x_i + M₂·o
	// The Ms are tightened per cell from the variable boxes — loose
	// region-wide Ms make the LP relaxation nearly useless and blow up
	// branch & bound on dense multi-row windows.
	for _, i := range band {
		info, _ := r.Info(locals[i])
		o := oVar[i]
		p.SetBounds(o, 0, 1)
		p.SetInteger(o)
		cl, cu := cellBounds[i][0], cellBounds[i][1]
		m1 := math.Max(1, cu+float64(info.W)-tl)
		m2 := math.Max(1, tu+float64(c.W)-cl)
		p.AddConstraint([]ilp.Term{{Var: xVar(i), Coef: 1}, {Var: xT, Coef: -1}, {Var: o, Coef: m1}}, ilp.LE, m1-float64(info.W))
		p.AddConstraint([]ilp.Term{{Var: xT, Coef: 1}, {Var: xVar(i), Coef: -1}, {Var: o, Coef: -m2}}, ilp.LE, -float64(c.W))
	}

	sol := p.Solve()
	s.Problems++
	s.Nodes += int64(sol.Nodes)
	switch sol.Status {
	case ilp.Optimal:
		s.Optimal++
	case ilp.Feasible:
		s.NonOptRet++
	default:
		return nil, 0, false
	}

	// Decode gaps: on each band row, the target's gap index is the number
	// of cells marked "left".
	gaps = make([]int, c.H)
	for k := 0; k < c.H; k++ {
		g := 0
		for _, id := range rowCells[t+k] {
			if sol.X[oVar[idxOf[id]]] > 0.5 {
				g++
			}
		}
		gaps[k] = g
	}
	return gaps, sol.Obj, true
}
