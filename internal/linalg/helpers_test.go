package linalg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hash"
)

// at returns element (i, j).
func (m *matrix) at(i, j int) float64 { return m.Data[i*m.Cols+j] }

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Clone returns a deep copy of m.
func (m *matrix) Clone() *matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m · x. It panics if len(x) != m.Cols.
func (m *matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, v := range m.row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// columns returns m's columns as fresh slices: the form LeastSquares
// takes A in.
func (m *matrix) columns() [][]float64 {
	cols := make([][]float64, m.Cols)
	for j := range cols {
		cols[j] = make([]float64, m.Rows)
		for i := range cols[j] {
			cols[j][i] = m.at(i, j)
		}
	}
	return cols
}

// SVDResult holds a thin SVD: A = U · diag(S) · Vᵀ with U of shape
// (Rows×Cols), S of length Cols (descending) and V of shape (Cols×Cols).
type SVDResult struct {
	U *matrix
	S []float64
	V *matrix
}

// decomposition reads the workspace's last svd back as an SVDResult,
// U's columns normalized as LeastSquares normalizes them (a zero column
// stays zero).
func (ws *Workspace) decomposition() SVDResult {
	n, m := ws.gt.Rows, ws.gt.Cols
	r := SVDResult{U: NewMatrix(m, n), S: append([]float64(nil), ws.s[:n]...), V: NewMatrix(n, n)}
	for k, j := range ws.order {
		for i, g := range ws.gt.row(j) {
			if r.S[k] > 0 {
				r.U.set(i, k, g/r.S[k])
			}
		}
		for l, v := range ws.vt.row(j) {
			r.V.set(l, k, v)
		}
	}
	return r
}

// SVD is the workspace's svd of a, read back as an SVDResult.
func SVD(a *matrix) SVDResult {
	var ws Workspace
	ws.svd(a.columns(), a.Rows)
	return ws.decomposition()
}

// LeastSquares is the workspace solve of a on a throwaway workspace.
func LeastSquares(a *matrix, b []float64) []float64 {
	var ws Workspace
	return ws.LeastSquares(nil, a.columns(), b)
}

// rowMajorSVD is the row-major one-sided Jacobi SVD the workspace's
// transposed form replaced, kept as its oracle: the same operations in
// the same order, read through at and set on untransposed matrices.
func rowMajorSVD(a *matrix) SVDResult {
	m, n := a.Rows, a.Cols
	g := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.set(i, i, 1)
	}
	eps := 1e-14
	for sweep := 0; sweep < 60; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					gp := g.at(i, p)
					gq := g.at(i, q)
					alpha += gp * gp
					beta += gq * gq
					gamma += gp * gq
				}
				if gamma == 0 || gamma*gamma <= eps*eps*alpha*beta {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					gp := g.at(i, p)
					gq := g.at(i, q)
					g.set(i, p, c*gp-s*gq)
					g.set(i, q, s*gp+c*gq)
				}
				for i := 0; i < n; i++ {
					vp := v.at(i, p)
					vq := v.at(i, q)
					v.set(i, p, c*vp-s*vq)
					v.set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}
	s := make([]float64, n)
	u := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += g.at(i, j) * g.at(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.set(i, j, g.at(i, j)/norm)
			}
		}
	}
	swapCols := func(m *matrix, a, b int) {
		for i := 0; i < m.Rows; i++ {
			va, vb := m.at(i, a), m.at(i, b)
			m.set(i, a, vb)
			m.set(i, b, va)
		}
	}
	for i := 0; i < n; i++ {
		maxJ := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[maxJ] {
				maxJ = j
			}
		}
		if maxJ != i {
			s[i], s[maxJ] = s[maxJ], s[i]
			swapCols(u, i, maxJ)
			swapCols(v, i, maxJ)
		}
	}
	return SVDResult{U: u, S: s, V: v}
}

// oracleSolve is the pseudo-inverse solve of LeastSquares over an
// untransposed SVD.
func oracleSolve(svd SVDResult, b []float64) []float64 {
	n := len(svd.S)
	x := make([]float64, n)
	if n == 0 || svd.S[0] == 0 {
		return x
	}
	tol := svd.S[0] * rcondTol
	for k := 0; k < n; k++ {
		if svd.S[k] <= tol {
			continue
		}
		var ub float64
		for i := 0; i < svd.U.Rows; i++ {
			ub += svd.U.at(i, k) * b[i]
		}
		ub /= svd.S[k]
		for j := 0; j < n; j++ {
			x[j] += ub * svd.V.at(j, k)
		}
	}
	return x
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSVDMatchesRowMajorOracle holds the transposed SVD to the row-major
// one bit for bit, on random matrices of the predictor's shapes and on
// rank-deficient ones (duplicated, scaled and all-zero columns), each
// decomposed twice through one workspace so reused scratch shows too,
// and LeastSquares to the pseudo-inverse solve over the oracle, padded
// with zero rows where A is wide.
func TestSVDMatchesRowMajorOracle(t *testing.T) {
	rng := hash.NewXorShift(40)
	var ws Workspace
	for trial := range 200 {
		m := 1 + rng.Intn(70)
		n := 1 + rng.Intn(min(m, 14))
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
		if trial%2 == 1 && n > 1 {
			// Rank-deficient: copy, scale or zero some columns.
			for j := 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					continue
				}
				src, k := rng.Intn(j), [...]float64{1, -2.5, 0}[rng.Intn(3)]
				for i := 0; i < m; i++ {
					a.set(i, j, k*a.at(i, src))
				}
			}
		}
		want := rowMajorSVD(a)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if x, wantX := ws.LeastSquares(nil, a.columns(), b), oracleSolve(want, b); !bitEqual(x, wantX) {
			t.Fatalf("trial %d: LeastSquares = %v, oracle %v", trial, x, wantX)
		}
		for rep := range 2 {
			ws.svd(a.columns(), m)
			got := ws.decomposition()
			for k := range n {
				if math.Float64bits(got.S[k]) != math.Float64bits(want.S[k]) {
					t.Fatalf("trial %d rep %d: s[%d] = %v, oracle %v", trial, rep, k, got.S[k], want.S[k])
				}
				for i := range m {
					if g, w := got.U.at(i, k), want.U.at(i, k); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("trial %d rep %d: U[%d][%d] = %v, oracle %v", trial, rep, i, k, g, w)
					}
				}
				for j := range n {
					if g, w := got.V.at(j, k), want.V.at(j, k); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("trial %d rep %d: V[%d][%d] = %v, oracle %v", trial, rep, j, k, g, w)
					}
				}
			}
		}
	} // Underdetermined: the solve pads A and b with zero rows.
	for trial := range 50 {
		m := 1 + rng.Intn(8)
		n := m + 1 + rng.Intn(6)
		a, padded := NewMatrix(m, n), NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		copy(padded.Data, a.Data)
		b := make([]float64, n)
		for i := range b[:m] {
			b[i] = rng.NormFloat64()
		}
		if x, wantX := ws.LeastSquares(nil, a.columns(), b[:m]), oracleSolve(rowMajorSVD(padded), b); !bitEqual(x, wantX) {
			t.Fatalf("underdetermined trial %d: LeastSquares = %v, oracle %v", trial, x, wantX)
		}
	}
}
