// Package linalg provides the small dense linear algebra kernel the
// prediction subsystem needs: a matrix type, a singular value
// decomposition and an SVD-backed least-squares solver. The thesis
// (§3.2.2) solves the OLS system with SVD precisely because it remains
// well-behaved on over- or under-determined and multicollinear systems,
// and so does this implementation.
//
// The SVD uses one-sided Jacobi rotations, which is compact, numerically
// robust and comfortably fast at the sizes the predictor produces
// (n ≈ 60 history rows by p ≈ a dozen selected features).
package linalg

import (
	"fmt"
	"math"
)

// matrix is a dense row-major matrix.
type matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// set assigns element (i, j).
func (m *matrix) set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// reshape resizes m in place to rows×cols with all elements zero,
// reusing the backing array when its capacity suffices, so callers that
// solve many systems of varying shape keep one long-lived matrix.
func (m *matrix) reshape(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
		clear(m.Data)
	}
	m.Rows, m.Cols = rows, cols
}

// row returns row i of m as one contiguous slice.
func (m *matrix) row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols] }

// Workspace holds the scratch buffers of the SVD and least-squares
// solvers so repeated solves — the MLR predictor refits on every
// prediction — allocate nothing after the first call. The zero value is
// ready to use; buffers grow to the largest problem seen and are reused
// in place. A Workspace is not safe for concurrent use.
//
// The SVD works on Gᵀ and Vᵀ — row j of gt and vt is column j of G and
// V — so every rotation, norm and projection walks one contiguous
// slice.
type Workspace struct {
	gt, vt matrix
	s, rhs []float64
	order  []int
}

// GrowFloats returns dst resized to n, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element. It is the
// shared grow-scratch helper of the prediction path's in-place solvers.
func GrowFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// svd computes the thin singular value decomposition A = U · diag(S) · Vᵀ
// of the m-row matrix A whose columns are cols, each at most m long and
// zero below (m >= len(cols): LeastSquares pads with zero rows). It
// leaves, in the workspace, gt with row j the rotated column j of A —
// U's column times its singular value — s[j] its norm, vt with row j
// V's column j, and order the columns by descending singular value:
// position k of the sorted decomposition is column order[k].
func (ws *Workspace) svd(cols [][]float64, m int) {
	n := len(cols)
	if m < n {
		panic("linalg: SVD requires rows >= cols")
	}
	// Columns of G (rows of gt) are rotated until mutually orthogonal.
	gt := &ws.gt
	gt.reshape(n, m)
	for j, c := range cols {
		copy(gt.row(j), c)
	}
	vt := &ws.vt
	vt.reshape(n, n)
	for i := 0; i < n; i++ {
		vt.set(i, i, 1)
	}

	const maxSweeps = 60
	// Convergence when every column pair is orthogonal to machine
	// precision relative to the column norms.
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				gp, gq := gt.row(p), gt.row(q)
				var alpha, beta, gamma float64
				for i := range gp {
					alpha += gp[i] * gp[i]
					beta += gq[i] * gq[i]
					gamma += gp[i] * gq[i]
				}
				if gamma == 0 || gamma*gamma <= eps*eps*alpha*beta {
					continue
				}
				rotated = true
				// Jacobi rotation that zeroes the (p,q) column inner
				// product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(gp, gq, c, s)
				rotate(vt.row(p), vt.row(q), c, s)
			}
		}
		if !rotated {
			break
		}
	}

	// Singular values are the column norms of G; U's columns are the
	// normalized columns.
	ws.s = GrowFloats(ws.s, n)
	s := ws.s
	for j := 0; j < n; j++ {
		var norm float64
		for _, x := range gt.row(j) {
			norm += x * x
		}
		s[j] = math.Sqrt(norm)
	}

	// Sort singular values (and the order of their columns) descending.
	if cap(ws.order) < n {
		ws.order = make([]int, n)
	}
	order := ws.order[:n]
	for j := range order {
		order[j] = j
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
			order[i], order[maxJ] = order[maxJ], order[i]
		}
	}
	ws.order = order
}

// rotate applies the plane rotation (c, s) to the column pair xp, xq.
func rotate(xp, xq []float64, c, s float64) {
	xq = xq[:len(xp)]
	for i, p := range xp {
		q := xq[i]
		xp[i] = c*p - s*q
		xq[i] = s*p + c*q
	}
}

// rcondTol is the relative tolerance under which singular values are
// treated as zero by the least-squares solver, which is what makes
// multicollinear predictor sets harmless (§3.2.2 assumption (i) becomes
// a non-issue).
const rcondTol = 1e-10

// LeastSquares returns the minimum-norm x minimizing ‖A·x − b‖₂, solved
// through the SVD pseudo-inverse, where A is given by its columns: cols
// (the design matrix's columns read in place, each len(b) long; it
// panics otherwise). The solve's intermediates live in the workspace and
// the solution is written into dst (grown only when its capacity is
// short); the returned slice is the solution and does not alias the
// workspace.
func (ws *Workspace) LeastSquares(dst []float64, cols [][]float64, b []float64) []float64 {
	m, n := len(b), len(cols)
	for _, c := range cols {
		if len(c) != m {
			panic("linalg: LeastSquares dimension mismatch")
		}
	}
	rhs := b
	if m < n {
		// Pad with zero rows so SVD's thin-shape requirement holds; the
		// minimum-norm solution is unchanged.
		ws.rhs = GrowFloats(ws.rhs, n)
		rhs = ws.rhs
		clear(rhs)
		copy(rhs, b)
		m = n
	}
	x := GrowFloats(dst, n)
	clear(x)
	if n == 0 {
		return x
	}
	ws.svd(cols, m)
	s := ws.s
	if s[0] == 0 {
		return x
	}
	tol := s[0] * rcondTol
	for k, j := range ws.order {
		if s[k] <= tol {
			continue
		}
		// coefficient along v_k: (u_k · b) / s_k, u_k = g_k / s_k
		var ub float64
		for i, g := range ws.gt.row(j) {
			ub += g / s[k] * rhs[i]
		}
		ub /= s[k]
		for l, v := range ws.vt.row(j) {
			x[l] += ub * v
		}
	}
	return x
}
