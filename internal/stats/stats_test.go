package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceConstant(t *testing.T) {
	if got := variance([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("Variance of constant = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := Stdev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("Stdev = %v, want 2", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1.5}
	if Min(xs) != -1 {
		t.Errorf("Min = %v, want -1", Min(xs))
	}
	if Max(xs) != 4 {
		t.Errorf("Max = %v, want 4", Max(xs))
	}
	if Sum(xs) != 7.5 {
		t.Errorf("Sum = %v, want 7.5", Sum(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 || Sum(nil) != 0 {
		t.Errorf("empty-slice results should all be 0")
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("P100 = %v, want 40", got)
	}
	if got := Percentile(xs, 50); !almostEq(got, 25, 1e-12) {
		t.Errorf("P50 = %v, want 25", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("P50(nil) = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		est, actual, want float64
	}{
		{100, 100, 0},
		{90, 100, 0.1},
		{110, 100, 0.1},
		{0, 0, 0},
		{5, 0, 1},
		{0, 100, 1},
	}
	for _, c := range cases {
		if got := RelErr(c.est, c.actual); !almostEq(got, c.want, 1e-12) {
			t.Errorf("RelErr(%v, %v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with zero-variance input = %v, want 0", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("Pearson with single point = %v, want 0", got)
	}
	if got := Pearson([]float64{1, 2}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with mismatched lengths = %v, want 0", got)
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Seeded() {
		t.Fatal("new EWMA should not be seeded")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Fatalf("first update should seed: %v", e.Value())
	}
	e.Update(20)
	if !almostEq(e.Value(), 15, 1e-12) {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha=0")
		}
	}()
	NewEWMA(0)
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 200; i++ {
		e.Update(7)
	}
	if !almostEq(e.Value(), 7, 1e-9) {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF len = %d", len(pts))
	}
	if pts[0].X != 1 || !almostEq(pts[0].F, 1.0/3, 1e-12) {
		t.Errorf("first point = %+v", pts[0])
	}
	if pts[2].X != 3 || pts[2].F != 1 {
		t.Errorf("last point = %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Fatalf("CDFAt = %v, want 0.5", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Fatalf("CDFAt below min = %v, want 0", got)
	}
	if got := CDFAt(xs, 10); got != 1 {
		t.Fatalf("CDFAt above max = %v, want 1", got)
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Fatalf("CDFAt(nil) = %v, want 0", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 {
		t.Error("clamp above")
	}
	if Clamp(-5, 0, 1) != 0 {
		t.Error("clamp below")
	}
	if Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp inside")
	}
}
