// Package ilp is a small, self-contained mixed-integer linear programming
// solver: a dense two-phase primal simplex for the LP relaxations and a
// depth-first branch & bound for integrality. It stands in for the
// open-source `lpsolve` solver the paper used for its ILP baseline (§6).
//
// The solver targets the problem sizes that arise from local-legalization
// windows — on the order of a hundred variables and a few hundred
// constraints with a few dozen binaries — and is deliberately simple
// rather than fast: the paper's point is precisely that the ILP approach,
// while optimal, is orders of magnitude slower than MLL.
package ilp

import (
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op uint8

const (
	// LE is ≤.
	LE Op = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Status reports the outcome of a solve.
type Status uint8

const (
	// Optimal: a provably optimal solution was found.
	Optimal Status = iota
	// Feasible: branch & bound hit its node limit; the solution is the
	// best incumbent but optimality is not proven.
	Feasible
	// Infeasible: no solution satisfies the constraints.
	Infeasible
	// Unbounded: the objective can decrease without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a minimization MILP:
//
//	minimize  c·x
//	s.t.      A·x (≤,≥,=) b,   lb ≤ x ≤ ub,   x_i ∈ ℤ for marked i
//
// Bounds default to [0, +inf).
type Problem struct {
	n       int
	obj     []float64
	cons    []constraint
	lb, ub  []float64
	integer []bool

	// MaxNodes caps branch & bound nodes (0 = default 200000).
	MaxNodes int
	// MaxIter caps simplex iterations per LP (0 = default, scaled to size).
	MaxIter int
}

// NewProblem returns a minimization problem with n variables, all with
// bounds [0, +inf).
func NewProblem(n int) *Problem {
	p := &Problem{
		n:       n,
		obj:     make([]float64, n),
		lb:      make([]float64, n),
		ub:      make([]float64, n),
		integer: make([]bool, n),
	}
	for i := range p.ub {
		p.ub[i] = math.Inf(1)
	}
	return p
}

// SetObjCoef sets the objective coefficient of variable i.
func (p *Problem) SetObjCoef(i int, c float64) { p.obj[i] = c }

// SetBounds sets lb ≤ x_i ≤ hb. Use math.Inf(1) for an unbounded top.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("ilp: SetBounds(%d) with lo %g > hi %g", i, lo, hi))
	}
	p.lb[i] = lo
	p.ub[i] = hi
}

// SetInteger marks x_i as integral.
func (p *Problem) SetInteger(i int) { p.integer[i] = true }

// AddConstraint appends Σ terms (op) rhs. Terms with duplicate variables
// are summed.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.n {
			panic(fmt.Sprintf("ilp: constraint references variable %d of %d", t.Var, p.n))
		}
	}
	p.cons = append(p.cons, constraint{terms: append([]Term(nil), terms...), op: op, rhs: rhs})
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // branch & bound nodes explored
}

const (
	feasTol = 1e-7
	intTol  = 1e-6
)

// Solve runs branch & bound over simplex LP relaxations.
func (p *Problem) Solve() Solution {
	maxNodes := p.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}

	type node struct {
		lb, ub []float64
	}
	root := node{lb: append([]float64(nil), p.lb...), ub: append([]float64(nil), p.ub...)}
	stack := []node{root}

	best := Solution{Status: Infeasible, Obj: math.Inf(1)}
	nodes := 0
	sawUnbounded := false

	for len(stack) > 0 {
		if nodes >= maxNodes {
			if best.Status != Infeasible {
				best.Status = Feasible
			}
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		rel, st := p.solveLP(nd.lb, nd.ub)
		switch st {
		case Infeasible:
			continue
		case Unbounded:
			sawUnbounded = true
			continue
		}
		if rel.Obj >= best.Obj-1e-9 {
			continue // bound prune
		}
		// Find most fractional integer variable.
		branch := -1
		worst := intTol
		for i := 0; i < p.n; i++ {
			if !p.integer[i] {
				continue
			}
			f := rel.X[i] - math.Floor(rel.X[i])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branch = i
			}
		}
		if branch < 0 {
			// Integral: candidate incumbent. Round integer variables
			// exactly to protect downstream users.
			for i := 0; i < p.n; i++ {
				if p.integer[i] {
					rel.X[i] = math.Round(rel.X[i])
				}
			}
			if rel.Obj < best.Obj {
				best = Solution{Status: Optimal, X: rel.X, Obj: rel.Obj}
			}
			continue
		}
		v := rel.X[branch]
		// Branch: x ≤ floor(v) and x ≥ ceil(v). Push the "closer" child
		// last so it is explored first.
		down := node{lb: append([]float64(nil), nd.lb...), ub: append([]float64(nil), nd.ub...)}
		down.ub[branch] = math.Floor(v)
		up := node{lb: append([]float64(nil), nd.lb...), ub: append([]float64(nil), nd.ub...)}
		up.lb[branch] = math.Ceil(v)
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}
	best.Nodes = nodes
	if best.Status == Infeasible && sawUnbounded {
		best.Status = Unbounded
	}
	return best
}

// SolveRelaxation solves the LP relaxation with the problem's own bounds.
func (p *Problem) SolveRelaxation() Solution {
	sol, st := p.solveLP(p.lb, p.ub)
	sol.Status = st
	return sol
}
