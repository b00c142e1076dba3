package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hash"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.set(1, 2, 5)
	if m.at(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.set(0, 0, 9)
	if m.at(0, 0) == 9 {
		t.Fatal("Clone aliases original")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.set(0, 0, 1)
	m.set(0, 1, 2)
	m.set(1, 0, 3)
	m.set(1, 1, 4)
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestSVDIdentity(t *testing.T) {
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.set(i, i, 1)
	}
	svd := SVD(m)
	for i, s := range svd.S {
		if !almostEq(s, 1, 1e-12) {
			t.Fatalf("singular value %d = %v, want 1", i, s)
		}
	}
}

func TestSVDKnownSingularValues(t *testing.T) {
	// diag(3, 2, 1) embedded in a 4x3 matrix.
	m := NewMatrix(4, 3)
	m.set(0, 0, 3)
	m.set(1, 1, 2)
	m.set(2, 2, 1)
	svd := SVD(m)
	want := []float64{3, 2, 1}
	for i := range want {
		if !almostEq(svd.S[i], want[i], 1e-10) {
			t.Fatalf("S[%d] = %v, want %v", i, svd.S[i], want[i])
		}
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := hash.NewXorShift(1)
	m, n := 8, 5
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	svd := SVD(a)
	// Reconstruct A = U S V^T and compare elementwise.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += svd.U.at(i, k) * svd.S[k] * svd.V.at(j, k)
			}
			if !almostEq(sum, a.at(i, j), 1e-9) {
				t.Fatalf("reconstruction (%d,%d): %v vs %v", i, j, sum, a.at(i, j))
			}
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := hash.NewXorShift(2)
	a := NewMatrix(10, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	svd := SVD(a)
	// U^T U = I and V^T V = I.
	for p := 0; p < 4; p++ {
		for q := 0; q < 4; q++ {
			var uu, vv float64
			for i := 0; i < 10; i++ {
				uu += svd.U.at(i, p) * svd.U.at(i, q)
			}
			for i := 0; i < 4; i++ {
				vv += svd.V.at(i, p) * svd.V.at(i, q)
			}
			want := 0.0
			if p == q {
				want = 1
			}
			if !almostEq(uu, want, 1e-9) {
				t.Fatalf("U^T U (%d,%d) = %v", p, q, uu)
			}
			if !almostEq(vv, want, 1e-9) {
				t.Fatalf("V^T V (%d,%d) = %v", p, q, vv)
			}
		}
	}
}

func TestSVDDescendingOrder(t *testing.T) {
	rng := hash.NewXorShift(3)
	a := NewMatrix(12, 6)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	svd := SVD(a)
	for i := 1; i < len(svd.S); i++ {
		if svd.S[i] > svd.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", svd.S)
		}
	}
}

func TestSVDPanicsOnWideMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SVD(NewMatrix(2, 3))
}

func TestSVDRankDeficient(t *testing.T) {
	// Two identical columns: one singular value must be ~0.
	a := NewMatrix(5, 2)
	for i := 0; i < 5; i++ {
		a.set(i, 0, float64(i+1))
		a.set(i, 1, float64(i+1))
	}
	svd := SVD(a)
	if svd.S[1] > 1e-10*svd.S[0] {
		t.Fatalf("rank-deficient matrix has S = %v", svd.S)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x sampled exactly.
	a := NewMatrix(4, 2)
	b := make([]float64, 4)
	for i := 0; i < 4; i++ {
		x := float64(i)
		a.set(i, 0, 1)
		a.set(i, 1, x)
		b[i] = 2 + 3*x
	}
	coef := LeastSquares(a, b)
	if !almostEq(coef[0], 2, 1e-9) || !almostEq(coef[1], 3, 1e-9) {
		t.Fatalf("coef = %v, want [2 3]", coef)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy line: the residual of the LS fit must not exceed the
	// residual of the true generating coefficients.
	rng := hash.NewXorShift(4)
	n := 50
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.set(i, 0, 1)
		a.set(i, 1, x)
		b[i] = 5 + 0.5*x + 0.1*rng.NormFloat64()
	}
	coef := LeastSquares(a, b)
	ssFit := residual(a, coef, b)
	ssTrue := residual(a, []float64{5, 0.5}, b)
	if ssFit > ssTrue+1e-9 {
		t.Fatalf("LS residual %v exceeds true-coefficient residual %v", ssFit, ssTrue)
	}
	if math.Abs(coef[1]-0.5) > 0.01 {
		t.Fatalf("slope = %v, want ~0.5", coef[1])
	}
}

func residual(a *matrix, x, b []float64) float64 {
	pred := a.MulVec(x)
	var ss float64
	for i := range b {
		d := pred[i] - b[i]
		ss += d * d
	}
	return ss
}

func TestLeastSquaresMulticollinear(t *testing.T) {
	// Duplicate predictor columns: SVD pseudo-inverse must return a
	// finite solution that still fits the data.
	n := 20
	a := NewMatrix(n, 3)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.set(i, 0, 1)
		a.set(i, 1, x)
		a.set(i, 2, x) // exact duplicate of column 1
		b[i] = 1 + 4*x
	}
	coef := LeastSquares(a, b)
	for _, c := range coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient: %v", coef)
		}
	}
	if ss := residual(a, coef, b); ss > 1e-9 {
		t.Fatalf("multicollinear fit residual = %v", ss)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	// More unknowns than equations: minimum-norm solution must satisfy
	// the equations.
	a := NewMatrix(2, 4)
	a.set(0, 0, 1)
	a.set(0, 1, 2)
	a.set(1, 2, 1)
	a.set(1, 3, 1)
	b := []float64{5, 3}
	x := LeastSquares(a, b)
	got := a.MulVec(x)
	if !almostEq(got[0], 5, 1e-9) || !almostEq(got[1], 3, 1e-9) {
		t.Fatalf("underdetermined solve misses: %v", got)
	}
}

func TestLeastSquaresZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 2)
	x := LeastSquares(a, []float64{1, 2, 3})
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero matrix solution = %v, want zeros", x)
	}
}

func TestLeastSquaresPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LeastSquares(NewMatrix(3, 2), []float64{1, 2})
}

func TestSVDPropertySingularValuesNonNegative(t *testing.T) {
	rng := hash.NewXorShift(7)
	f := func(seed uint16) bool {
		m := 3 + int(seed%8)
		n := 1 + int(seed%uint16(m))
		if n > m {
			n = m
		}
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * 100
		}
		svd := SVD(a)
		for _, s := range svd.S {
			if s < 0 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLeastSquares60x12(b *testing.B) {
	rng := hash.NewXorShift(1)
	a := NewMatrix(60, 12)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	y := make([]float64, 60)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeastSquares(a, y)
	}
}
