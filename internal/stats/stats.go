// Package stats provides small numerical helpers used across the load
// shedding system: summary statistics, exponentially weighted moving
// averages, Pearson correlation, relative errors and empirical CDFs.
//
// All functions are pure and operate on float64 slices; NaN handling
// follows the convention that an empty input yields zero rather than NaN
// so callers can fold partial results without guards.
package stats

import (
	"math"
	"sort"
	"sync"
)

// sortBufs recycles the scratch slices Percentile, Median and CDF sort
// into. The functions stay pure (inputs are never
// reordered) but repeated calls — the experiment harness summarizes
// thousands of per-bin series — stop churning the heap.
var sortBufs = sync.Pool{New: func() any { return new([]float64) }}

// sortedCopy returns a pooled sorted copy of xs; callers must hand the
// pointer back with putSorted when done reading.
func sortedCopy(xs []float64) *[]float64 {
	p := sortBufs.Get().(*[]float64)
	cp := *p
	if cap(cp) < len(xs) {
		cp = make([]float64, len(xs))
	}
	cp = cp[:len(xs)]
	copy(cp, xs)
	sort.Float64s(cp)
	*p = cp
	return p
}

func putSorted(p *[]float64) { sortBufs.Put(p) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// variance returns the population variance of xs, or 0 when len(xs) < 2.
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Stdev returns the population standard deviation of xs.
func Stdev(xs []float64) float64 {
	return math.Sqrt(variance(xs))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It sorts a pooled copy of
// the input, leaving xs untouched. An empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	buf := sortedCopy(xs)
	defer putSorted(buf)
	cp := *buf
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// RelErr returns the relative error |1 - est/actual|. When actual is
// zero the error is 0 if est is also zero and 1 otherwise, mirroring the
// thesis convention for empty measurement intervals.
func RelErr(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(1 - est/actual)
}

// Pearson returns the linear (Pearson) correlation coefficient between
// xs and ys (Equation 3.3 in the thesis). It returns 0 when the inputs
// have different lengths, fewer than two points, or zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// EWMA is an exponentially weighted moving average with weight Alpha
// given to the newest observation:
//
//	v' = alpha*x + (1-alpha)*v
//
// The zero value is not ready for use; construct with NewEWMA. Until the
// first observation Value reports 0 and Seeded reports false.
type EWMA struct {
	Alpha  float64
	value  float64
	seeded bool
}

// NewEWMA returns an EWMA with the given weight in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{Alpha: alpha}
}

// Update folds x into the average and returns the new value. The first
// observation seeds the average directly.
func (e *EWMA) Update(x float64) float64 {
	if !e.seeded {
		e.value = x
		e.seeded = true
		return e.value
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Seeded reports whether at least one observation has been folded in.
func (e *EWMA) Seeded() bool { return e.seeded }

// Restore sets the average and seeded flag directly, so a checkpoint
// (Value, Seeded) round-trips bit-exactly through a restart.
func (e *EWMA) Restore(value float64, seeded bool) { e.value, e.seeded = value, seeded }

// CDFPoint is one point of an empirical CDF: P(X <= X) = F.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical cumulative distribution function of xs as a
// sorted sequence of (value, fraction<=value) points, one per sample.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	buf := sortedCopy(xs)
	defer putSorted(buf)
	cp := *buf
	out := make([]CDFPoint, len(cp))
	n := float64(len(cp))
	for i, x := range cp {
		out[i] = CDFPoint{X: x, F: float64(i+1) / n}
	}
	return out
}

// CDFAt evaluates the empirical CDF of xs at x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
