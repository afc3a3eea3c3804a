package gp

// triplet-based symmetric positive-definite system builder and a
// Jacobi-preconditioned conjugate gradient solver. The quadratic placer
// keeps one system per coordinate axis and reassembles it at every outer
// iteration.

type system struct {
	n    int
	diag []float64
	// off-diagonal entries in coordinate form; the matrix is symmetric so
	// each pair is stored once and applied twice.
	ri, ci []int32
	v      []float64
	rhs    []float64
	// CG work vectors; every solve overwrites them before reading.
	r, z, p, ap []float64
}

func newSystem(n int) *system {
	return &system{n: n, diag: make([]float64, n), rhs: make([]float64, n),
		r: make([]float64, n), z: make([]float64, n), p: make([]float64, n), ap: make([]float64, n)}
}

// reset empties the system for the next assembly and keeps its storage.
func (s *system) reset() {
	clear(s.diag)
	clear(s.rhs)
	s.ri, s.ci, s.v = s.ri[:0], s.ci[:0], s.v[:0]
}

// addConnection adds a two-pin spring of weight w between variables i and
// j (Laplacian stamp).
func (s *system) addConnection(i, j int, w float64) {
	s.diag[i] += w
	s.diag[j] += w
	s.ri = append(s.ri, int32(i))
	s.ci = append(s.ci, int32(j))
	s.v = append(s.v, -w)
}

// addAnchor adds a spring of weight w from variable i to fixed position p.
func (s *system) addAnchor(i int, p, w float64) {
	s.diag[i] += w
	s.rhs[i] += w * p
}

// mul computes y = A·x.
func (s *system) mul(x, y []float64) {
	for i := range y {
		y[i] = s.diag[i] * x[i]
	}
	for k := range s.v {
		i, j, v := s.ri[k], s.ci[k], s.v[k]
		y[i] += v * x[j]
		y[j] += v * x[i]
	}
}

// solveCG solves A·x = rhs with Jacobi-preconditioned conjugate gradient,
// starting from x0 (overwritten and returned).
func (s *system) solveCG(x []float64, tol float64, maxIter int) []float64 {
	n := s.n
	r, z, p, ap := s.r, s.z, s.p, s.ap

	s.mul(x, r)
	for i := 0; i < n; i++ {
		r[i] = s.rhs[i] - r[i]
	}
	prec := func(dst, src []float64) {
		for i := 0; i < n; i++ {
			d := s.diag[i]
			if d <= 1e-12 {
				d = 1e-12
			}
			dst[i] = src[i] / d
		}
	}
	prec(z, r)
	copy(p, z)
	rz := dot(r, z)
	rhsNorm := norm2(s.rhs)
	if rhsNorm == 0 {
		rhsNorm = 1
	}
	for iter := 0; iter < maxIter; iter++ {
		if norm2(r) <= tol*rhsNorm {
			break
		}
		s.mul(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		prec(z, r)
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}
