package linalg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hash"
)

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m · x. It panics if len(x) != m.Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
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
func (m *Matrix) columns() [][]float64 {
	cols := make([][]float64, m.Cols)
	for j := range cols {
		cols[j] = make([]float64, m.Rows)
		for i := range cols[j] {
			cols[j][i] = m.At(i, j)
		}
	}
	return cols
}

// SVDResult holds a thin SVD: A = U · diag(S) · Vᵀ with U of shape
// (Rows×Cols), S of length Cols (descending) and V of shape (Cols×Cols).
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
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
				r.U.Set(i, k, g/r.S[k])
			}
		}
		for l, v := range ws.vt.row(j) {
			r.V.Set(l, k, v)
		}
	}
	return r
}

// SVD is the workspace's svd of a, read back as an SVDResult.
func SVD(a *Matrix) SVDResult {
	var ws Workspace
	ws.svd(a.columns(), a.Rows)
	return ws.decomposition()
}

// LeastSquares is the workspace solve of a on a throwaway workspace.
func LeastSquares(a *Matrix, b []float64) []float64 {
	var ws Workspace
	return ws.LeastSquares(nil, a.columns(), b)
}

// rowMajorSVD is the row-major one-sided Jacobi SVD the workspace's
// transposed form replaced, kept as its oracle: the same operations in
// the same order, read through At and Set on untransposed matrices.
func rowMajorSVD(a *Matrix) SVDResult {
	m, n := a.Rows, a.Cols
	g := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	eps := 1e-14
	for sweep := 0; sweep < 60; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					gp := g.At(i, p)
					gq := g.At(i, q)
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
					gp := g.At(i, p)
					gq := g.At(i, q)
					g.Set(i, p, c*gp-s*gq)
					g.Set(i, q, s*gp+c*gq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
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
			norm += g.At(i, j) * g.At(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, g.At(i, j)/norm)
			}
		}
	}
	swapCols := func(m *Matrix, a, b int) {
		for i := 0; i < m.Rows; i++ {
			va, vb := m.At(i, a), m.At(i, b)
			m.Set(i, a, vb)
			m.Set(i, b, va)
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
			ub += svd.U.At(i, k) * b[i]
		}
		ub /= svd.S[k]
		for j := 0; j < n; j++ {
			x[j] += ub * svd.V.At(j, k)
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
					a.Set(i, j, k*a.At(i, src))
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
					if g, w := got.U.At(i, k), want.U.At(i, k); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("trial %d rep %d: U[%d][%d] = %v, oracle %v", trial, rep, i, k, g, w)
					}
				}
				for j := range n {
					if g, w := got.V.At(j, k), want.V.At(j, k); math.Float64bits(g) != math.Float64bits(w) {
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
