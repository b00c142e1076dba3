package predict

import (
	"math"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/hash"
)

// refitRows returns t feature rows of correlated traffic: drivers,
// collinear copies, noise, an all-zero column (zeroCol) and a column
// holding one NaN (nanCol, at row nanRow).
func refitRows(seed uint64, t int) [][]float64 {
	rng := hash.NewXorShift(seed)
	rows := make([][]float64, t)
	for i := range rows {
		d0, d1 := 1000+500*rng.Float64(), 300*rng.Float64()
		r := make([]float64, features.NumFeatures)
		for j := range r {
			switch j % 5 {
			case 0:
				r[j] = d0 + float64(j)
			case 1:
				r[j] = d1 + 5*rng.NormFloat64()
			case 2:
				r[j] = d0 + d1 + 20*rng.NormFloat64()
			default:
				r[j] = 1000 * rng.Float64()
			}
		}
		r[zeroCol] = 0
		if i == nanRow {
			r[nanCol] = math.NaN()
		}
		rows[i] = r
	}
	return rows
}

const (
	zeroCol = 7
	nanCol  = 11
	nanRow  = 130
)

// refitMember is one query of the round: the MLR predicting through the
// Refit and a solo twin holding the same history.
type refitMember struct {
	name         string
	k            int // cost function
	shared, solo *MLR
	wantShared   int // columns shared in the first round
}

// TestSharedRefitMatchesSolo holds every member of a shared round to a
// solo MLR on the same history, bit for bit: selection, coefficients,
// prediction and op counters. The members' columns are identical to the
// reference's, one ULP apart, -0 against +0, NaN-bearing, shorter, and
// in another slot layout (truncated and refilled; restored through
// SetState). Rounds repeat with new observations in between, and the
// reference changes with the member order.
func TestSharedRefitMatchesSolo(t *testing.T) {
	const (
		hist = DefaultHistory
		upTo = 152 // rows observed before the first round
	)
	rows := refitRows(1, 200)
	rng := hash.NewXorShift(2)
	noise := make([][]float64, 8)
	for k := range noise {
		noise[k] = make([]float64, len(rows))
		for i := range noise[k] {
			noise[k][i] = 50 * rng.NormFloat64()
		}
	}
	cost := func(k, i int) float64 {
		r := rows[i]
		return 1000*float64(k+1) + float64(k+2)*r[0] + float64(7-k)*r[1] + noise[k][i]
	}
	// observe feeds rows [from, to) with member k's costs; edit may
	// replace one value of row i as it goes in.
	observe := func(h *History, k, from, to int, edit func(i int, r []float64)) {
		for i := from; i < to; i++ {
			r := slices.Clone(rows[i])
			if edit != nil {
				edit(i, r)
			}
			h.add(r, cost(k, i))
		}
	}
	var members []*refitMember
	add := func(name string, wantShared int, fill func(h *History, k int)) {
		mb := &refitMember{name: name, k: len(members), wantShared: wantShared,
			shared: NewMLR(hist, DefaultThreshold), solo: NewMLR(hist, DefaultThreshold)}
		fill(mb.shared.hist, mb.k)
		fill(mb.solo.hist, mb.k)
		members = append(members, mb)
	}
	all := features.NumFeatures
	add("reference", all, func(h *History, k int) { observe(h, k, 0, upTo, nil) })
	add("identical", all, func(h *History, k int) { observe(h, k, 0, upTo, nil) })
	add("one ULP apart", all-1, func(h *History, k int) {
		observe(h, k, 0, upTo, func(i int, r []float64) {
			if i == upTo-5 {
				r[3] = math.Nextafter(r[3], math.Inf(1))
			}
		})
	})
	add("-0 for +0", all-1, func(h *History, k int) {
		observe(h, k, 0, upTo, func(i int, r []float64) {
			if i == upTo-9 {
				r[zeroCol] = math.Copysign(0, -1)
			}
		})
	})
	add("another NaN", all-1, func(h *History, k int) {
		observe(h, k, 0, upTo, func(i int, r []float64) {
			if i == upTo-20 {
				r[nanCol] = math.NaN()
			}
		})
	})
	add("shorter", 0, func(h *History, k int) { observe(h, k, upTo-hist+10, upTo, nil) })
	// The same newest rows as the reference's ring, in another slot
	// order: only the all-zero column matches bit for bit.
	add("truncated, refilled", 1, func(h *History, k int) {
		observe(h, k, 0, upTo-hist+8, nil)
		h.truncate(8)
		observe(h, k, upTo-hist+8, upTo, nil)
	})
	// The reference's own ring layout, through a checkpoint.
	add("restored", all, func(h *History, k int) {
		src := newHistory(hist)
		observe(src, k, 0, upTo, nil)
		if err := h.SetState(src.State()); err != nil {
			t.Fatal(err)
		}
	})

	var r Refit
	for round := range 12 {
		if round > 0 {
			// A new row for everyone; the order rotates, so the
			// reference changes too.
			for _, mb := range members {
				observe(mb.shared.hist, mb.k, upTo+round-1, upTo+round, nil)
				observe(mb.solo.hist, mb.k, upTo+round-1, upTo+round, nil)
			}
			members = append(members[1:], members[0])
		}
		f := rows[upTo+round]
		r.Open()
		for _, mb := range members {
			got, want := r.Predict(mb.shared, f), mb.solo.Predict(f)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d, %s: shared prediction %v, solo %v", round, mb.name, got, want)
			}
			if !slices.Equal(mb.shared.Selected(), mb.solo.Selected()) {
				t.Fatalf("round %d, %s: shared selects %v, solo %v", round, mb.name, mb.shared.Selected(), mb.solo.Selected())
			}
			if !bitsEqual(mb.shared.coef, mb.solo.coef) {
				t.Fatalf("round %d, %s: shared coefficients %v, solo %v", round, mb.name, mb.shared.coef, mb.solo.coef)
			}
			if mb.shared.FCBFOps != mb.solo.FCBFOps || mb.shared.FitOps != mb.solo.FitOps {
				t.Fatalf("round %d, %s: shared ops %d/%d, solo %d/%d", round, mb.name,
					mb.shared.FCBFOps, mb.shared.FitOps, mb.solo.FCBFOps, mb.solo.FitOps)
			}
			// Every phase-2 correlation the member could ask for,
			// through the round's memo where both columns are shared.
			for a := range features.NumFeatures {
				for b := range a {
					got, want := mb.shared.fcbf.corr(a, b), mb.solo.fcbf.corr(a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("round %d, %s: shared corr(%d, %d) = %v, solo %v", round, mb.name, a, b, got, want)
					}
				}
			}
			if n := countTrue(mb.shared.fcbf.shared); round == 0 && n != mb.wantShared {
				t.Errorf("%s: %d columns shared, want %d", mb.name, n, mb.wantShared)
			}
			if len(mb.shared.Selected()) < 2 {
				t.Errorf("round %d, %s: selected %v: phase 2 never ran", round, mb.name, mb.shared.Selected())
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func countTrue(bs []bool) (n int) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// BenchmarkRefitRound is one bin's refits of seven queries over the same
// feature history with different costs: solo, as each MLR's Predict,
// and shared, through one Refit round.
func BenchmarkRefitRound(b *testing.B) {
	rows := refitRows(3, DefaultHistory+10)
	rng := hash.NewXorShift(4)
	ms := make([]*MLR, 7)
	for k := range ms {
		ms[k] = NewMLR(DefaultHistory, DefaultThreshold)
		for _, r := range rows { // rows short of nanRow: no NaN
			ms[k].Observe(r, 1000*float64(k+1)+float64(k+2)*r[0]+float64(7-k)*r[1]+50*rng.NormFloat64())
		}
	}
	f := rows[0]
	b.Run("solo", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, m := range ms {
				m.Predict(f)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		var r Refit
		b.ReportAllocs()
		for range b.N {
			r.Open()
			for _, m := range ms {
				r.Predict(m, f)
			}
		}
	})
}
