package predict

import (
	"math"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/stats"
)

// synth fills a feature vector with zeros except the given indices.
func synth(vals map[int]float64) features.Vector {
	v := make(features.Vector, features.NumFeatures)
	for i, x := range vals {
		v[i] = x
	}
	return v
}

func TestHistoryRing(t *testing.T) {
	h := newHistory(3)
	if h.len() != 0 {
		t.Fatal("new history not empty")
	}
	for i := 0; i < 5; i++ {
		h.add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	if h.len() != 3 {
		t.Fatalf("Len = %d, want 3", h.len())
	}
	costs := h.Costs()
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	if sum != 2+3+4 {
		t.Fatalf("ring kept wrong elements: %v", costs)
	}
}

func TestHistoryCopiesVectors(t *testing.T) {
	h := newHistory(2)
	v := synth(map[int]float64{0: 1})
	h.add(v, 10)
	v[0] = 999
	if got := h.column(0)[0]; got != 1 {
		t.Fatalf("history aliased caller's vector: %v", got)
	}
}

func TestHistoryPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newHistory(0)
}

func TestFCBFPhase1Threshold(t *testing.T) {
	rng := hash.NewXorShift(1)
	n := 100
	relevant := make([]float64, n)
	noise := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		relevant[i] = float64(i)
		noise[i] = rng.NormFloat64()
		y[i] = 3*relevant[i] + 0.01*rng.NormFloat64()
	}
	sel := FCBF([][]float64{noise, relevant}, y, 0.6)
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("FCBF selected %v, want [1]", sel)
	}
}

func TestFCBFRemovesRedundant(t *testing.T) {
	n := 100
	x := make([]float64, n)
	dup := make([]float64, n)
	y := make([]float64, n)
	rng := hash.NewXorShift(2)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		dup[i] = 2 * x[i] // perfectly redundant
		y[i] = 5 * x[i]
	}
	sel := FCBF([][]float64{x, dup}, y, 0.6)
	if len(sel) != 1 {
		t.Fatalf("FCBF kept redundant feature: %v", sel)
	}
}

func TestFCBFKeepsComplementaryFeatures(t *testing.T) {
	n := 200
	rng := hash.NewXorShift(3)
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		y[i] = a[i] + b[i]
	}
	sel := FCBF([][]float64{a, b}, y, 0.3)
	if len(sel) != 2 {
		t.Fatalf("FCBF dropped a complementary feature: %v", sel)
	}
}

func TestFCBFFallsBackToBest(t *testing.T) {
	n := 50
	rng := hash.NewXorShift(4)
	weak := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		weak[i] = rng.NormFloat64()
		y[i] = 0.3*weak[i] + rng.NormFloat64()
	}
	sel := FCBF([][]float64{weak}, y, 0.99)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("FCBF fallback = %v, want [0]", sel)
	}
}

func TestFCBFEmptyInput(t *testing.T) {
	if sel := FCBF(nil, nil, 0.5); sel != nil {
		t.Fatalf("FCBF(nil) = %v", sel)
	}
}

// pearsonFCBF is selectInto as it stood before columns were centred
// once: every correlation a fresh stats.Pearson call. It is the oracle;
// it also returns the sorted phase-1 survivors with their relevances.
func pearsonFCBF(cols [][]float64, y []float64, threshold float64) ([]int, []fcbfCand) {
	var out []int
	var cands []fcbfCand
	best := fcbfCand{idx: -1}
	for j, col := range cols {
		r := stats.Pearson(col, y)
		if r < 0 {
			r = -r
		}
		if r > best.r {
			best = fcbfCand{idx: j, r: r}
		}
		if r >= threshold {
			cands = append(cands, fcbfCand{idx: j, r: r})
		}
	}
	if len(cands) == 0 {
		if best.idx < 0 {
			return out, cands
		}
		return append(out, best.idx), cands
	}
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && (cands[k].r > cands[k-1].r ||
			(cands[k].r == cands[k-1].r && cands[k].idx < cands[k-1].idx)); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	removed := make([]bool, len(cands))
	for i := range cands {
		if removed[i] {
			continue
		}
		for j := i + 1; j < len(cands); j++ {
			if removed[j] {
				continue
			}
			r := stats.Pearson(cols[cands[i].idx], cols[cands[j].idx])
			if r < 0 {
				r = -r
			}
			if r >= cands[j].r-1e-9 {
				removed[j] = true
			}
		}
	}
	for i, c := range cands {
		if !removed[i] {
			out = append(out, c.idx)
		}
	}
	return out, cands
}

// correlatedHistory builds n rows of features.NumFeatures columns with
// the structure the engine's histories have and FCBF's two phases
// exist for: a few independent drivers, columns that are exact or noisy
// multiples of them (phase 2 removes these), exact duplicates, constant
// columns (zero variance) and plain noise, and a response driven by two
// of the drivers.
func correlatedHistory(seed uint64, n int) (cols [][]float64, y []float64) {
	rng := hash.NewXorShift(seed)
	cols = make([][]float64, features.NumFeatures)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		d0, d1, d2 := 1000+500*rng.Float64(), 300*rng.Float64(), rng.NormFloat64()
		for j := range cols {
			switch j % 7 {
			case 0:
				cols[j][i] = d0
			case 1:
				cols[j][i] = 3*d0 + float64(j) // collinear with every case-0 column
			case 2:
				cols[j][i] = d1 + 5*rng.NormFloat64()
			case 3:
				cols[j][i] = d0 + d1 + 20*rng.NormFloat64()
			case 4:
				cols[j][i] = 42 // constant
			case 5:
				cols[j][i] = d2
			default:
				cols[j][i] = 1000 * rng.Float64()
			}
		}
		y[i] = 1000 + 50*d0 + 20*d1 + 10*rng.NormFloat64()
	}
	return cols, y
}

func TestFCBFMatchesPearsonOracle(t *testing.T) {
	// Same selections and bit-equal coefficients as the per-call
	// stats.Pearson form, at every history length the MLR can fit on,
	// for column counts on and off centre4's groups of four, and for a
	// constant response (which correlates with nothing). One scratch
	// serves all shapes, as the MLR's does while its history fills.
	var sc fcbfScratch
	for n := minHistory; n <= DefaultHistory; n++ {
		for _, shape := range []struct {
			ncols     int
			threshold float64
			constY    bool
		}{
			{features.NumFeatures, DefaultThreshold, false},
			{features.NumFeatures, 0.05, false},
			{features.NumFeatures, 0, false},
			{1, 0, false}, {3, 0.05, false}, {5, DefaultThreshold, false}, {8, 0, false}, {13, 0.05, false},
			{features.NumFeatures, 0, true}, {6, DefaultThreshold, true},
		} {
			threshold := shape.threshold
			cols, y := correlatedHistory(uint64(n), n)
			cols = cols[:shape.ncols]
			if shape.constY {
				for i := range y {
					y[i] = 1234.5
				}
			}
			want, wantCands := pearsonFCBF(cols, y, threshold)
			got := sc.selectInto(nil, cols, y, threshold, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d threshold=%g: selected %v, oracle %v", n, threshold, got, want)
			}
			if len(sc.cands) != len(wantCands) {
				t.Fatalf("n=%d threshold=%g: %d phase-1 survivors, oracle %d", n, threshold, len(sc.cands), len(wantCands))
			}
			for k, c := range sc.cands {
				if c.idx != wantCands[k].idx || math.Float64bits(c.r) != math.Float64bits(wantCands[k].r) {
					t.Fatalf("n=%d threshold=%g: survivor %d = %+v, oracle %+v", n, threshold, k, c, wantCands[k])
				}
			}
			for a := range cols {
				want := math.Abs(stats.Pearson(cols[a], y))
				if got := sc.rel[a]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d, %d columns: relevance of %d = %v, Pearson %v", n, len(cols), a, got, want)
				}
				for b := range cols {
					want := math.Abs(stats.Pearson(cols[a], cols[b]))
					if got := sc.corr(a, b); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d: corr(%d,%d) = %v, Pearson %v", n, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestMLRColdStartUsesMean(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := synth(map[int]float64{features.IdxPackets: 100})
	if got := m.Predict(f); got != 0 {
		t.Fatalf("cold prediction = %v, want 0", got)
	}
	m.Observe(f, 500)
	m.Observe(f, 700)
	if got := m.Predict(f); got != 600 {
		t.Fatalf("fallback prediction = %v, want mean 600", got)
	}
}

func TestMLRLearnsLinearCost(t *testing.T) {
	// Cost = 1000 + 50*packets + 2*new5tuple, exactly the structure the
	// predictor is built for.
	m := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(5)
	i5 := featureIndex("new 5-tuple")
	for i := 0; i < 60; i++ {
		pkts := 1000 + 500*rng.Float64()
		nf := 100 + 300*rng.Float64()
		f := synth(map[int]float64{features.IdxPackets: pkts, i5: nf})
		m.Observe(f, 1000+50*pkts+2*nf)
	}
	pkts, nf := 1200.0, 250.0
	f := synth(map[int]float64{features.IdxPackets: pkts, i5: nf})
	want := 1000 + 50*pkts + 2*nf
	got := m.Predict(f)
	if stats.RelErr(got, want) > 0.02 {
		t.Fatalf("prediction = %v, want %v (+/-2%%)", got, want)
	}
	sel := m.Selected()
	foundPkts := false
	for _, j := range sel {
		if j == features.IdxPackets {
			foundPkts = true
		}
	}
	if !foundPkts {
		t.Fatalf("selected features %v missing packets", sel)
	}
}

func TestMLRNeverNegative(t *testing.T) {
	m := NewMLR(20, 0.6)
	rng := hash.NewXorShift(6)
	for i := 0; i < 20; i++ {
		pkts := rng.Float64() * 10
		m.Observe(synth(map[int]float64{features.IdxPackets: pkts}), pkts*2)
	}
	// Extrapolate far below the observed range.
	got := m.Predict(synth(map[int]float64{features.IdxPackets: -1e6}))
	if got < 0 {
		t.Fatalf("negative prediction: %v", got)
	}
}

func TestMLRTracksRegimeChange(t *testing.T) {
	// After the window slides past a cost-regime change, predictions
	// must follow the new regime.
	m := NewMLR(30, DefaultThreshold)
	f := func(p float64) features.Vector {
		return synth(map[int]float64{features.IdxPackets: p})
	}
	rng := hash.NewXorShift(7)
	for i := 0; i < 30; i++ {
		p := 100 + rng.Float64()*50
		m.Observe(f(p), 10*p)
	}
	for i := 0; i < 30; i++ { // new regime: cost doubles
		p := 100 + rng.Float64()*50
		m.Observe(f(p), 20*p)
	}
	got := m.Predict(f(120))
	if stats.RelErr(got, 2400) > 0.05 {
		t.Fatalf("post-change prediction = %v, want ~2400", got)
	}
}

func TestSLRLine(t *testing.T) {
	s := NewSLR(50, features.IdxPackets)
	for i := 0; i < 50; i++ {
		p := float64(100 + i)
		s.Observe(synth(map[int]float64{features.IdxPackets: p}), 7*p+30)
	}
	got := s.Predict(synth(map[int]float64{features.IdxPackets: 200}))
	if stats.RelErr(got, 7*200+30) > 0.01 {
		t.Fatalf("SLR prediction = %v, want %v", got, 7*200+30)
	}
}

func TestSLRConstantFeature(t *testing.T) {
	s := NewSLR(10, features.IdxPackets)
	for i := 0; i < 10; i++ {
		s.Observe(synth(map[int]float64{features.IdxPackets: 5}), 100)
	}
	if got := s.Predict(synth(map[int]float64{features.IdxPackets: 5})); got != 100 {
		t.Fatalf("constant-feature SLR = %v, want 100", got)
	}
}

func TestSLRMissesMultiFeatureCost(t *testing.T) {
	// Costs driven by a feature SLR doesn't watch: MLR should beat SLR.
	slr := NewSLR(DefaultHistory, features.IdxPackets)
	mlr := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(8)
	iBytes := featureIndex("bytes")
	var fLast features.Vector
	var wantLast float64
	for i := 0; i < 60; i++ {
		pkts := 1000 + rng.Float64()*100 // nearly constant
		bytes := 1e5 + 9e5*rng.Float64() // the real driver
		f := synth(map[int]float64{features.IdxPackets: pkts, iBytes: bytes})
		cost := 0.1 * bytes
		slr.Observe(f, cost)
		mlr.Observe(f, cost)
		fLast, wantLast = f, cost
	}
	errSLR := stats.RelErr(slr.Predict(fLast), wantLast)
	errMLR := stats.RelErr(mlr.Predict(fLast), wantLast)
	if errMLR > errSLR {
		t.Fatalf("MLR (%v) worse than SLR (%v) on byte-driven cost", errMLR, errSLR)
	}
}

func TestEWMAPredictor(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Predict(nil); got != 0 {
		t.Fatalf("cold EWMA = %v", got)
	}
	e.Observe(nil, 100)
	e.Observe(nil, 200)
	if got := e.Predict(nil); got != 150 {
		t.Fatalf("EWMA = %v, want 150", got)
	}
}

func TestEWMALagsStepChange(t *testing.T) {
	// Structural property the thesis exploits: EWMA cannot anticipate a
	// step it hasn't seen.
	e := NewEWMA(DefaultEWMAAlpha)
	for i := 0; i < 100; i++ {
		e.Observe(nil, 100)
	}
	// The traffic doubles; prediction still says 100.
	if got := e.Predict(nil); math.Abs(got-100) > 1e-9 {
		t.Fatalf("EWMA = %v, want 100", got)
	}
	e.Observe(nil, 200)
	got := e.Predict(nil)
	if got >= 200 || got <= 100 {
		t.Fatalf("EWMA after one step = %v, want between 100 and 200", got)
	}
}

func TestPredictorNames(t *testing.T) {
	cases := map[string]Predictor{
		"mlr":  NewMLR(10, 0.6),
		"slr":  NewSLR(10, 0),
		"ewma": NewEWMA(0.3),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func BenchmarkMLRPredict(b *testing.B) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(1)
	for i := 0; i < DefaultHistory; i++ {
		f := make(features.Vector, features.NumFeatures)
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
		m.Observe(f, rng.Float64()*1e6)
	}
	f := make(features.Vector, features.NumFeatures)
	for j := range f {
		f[j] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(f)
	}
}

func BenchmarkFCBFSelect(b *testing.B) {
	// A full correlated history, so both phases run: BenchmarkMLRPredict
	// feeds uncorrelated noise, nothing passes phase 1 and phase 2 never
	// starts.
	cols, y := correlatedHistory(1, DefaultHistory)
	var sc fcbfScratch
	var sel []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = sc.selectInto(sel[:0], cols, y, DefaultThreshold, nil)
	}
	if len(sel) == 0 || len(sc.cands) <= len(sel) {
		b.Fatalf("selected %d of %d phase-1 survivors: phase 2 removed nothing", len(sel), len(sc.cands))
	}
}

// TestMLRFitZeroAllocSteadyState is the PR 5 allocation guard for the
// prediction path: once the history ring and the fit scratch are warm,
// the refit-on-every-prediction loop (Predict + Observe) must not
// allocate at all.
func TestMLRFitZeroAllocSteadyState(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := make(features.Vector, features.NumFeatures)
	rng := hash.NewXorShift(7)
	fill := func() {
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
	}
	// Warm up: fill the ring past capacity and run fits at full history
	// so every scratch buffer reaches steady-state size.
	for i := 0; i < DefaultHistory+8; i++ {
		fill()
		m.Observe(f, 5000+2*f[features.IdxPackets]+3*f[featureIndex("bytes")])
		m.Predict(f)
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		m.Predict(f)
		m.Observe(f, 5000+2*f[features.IdxPackets]+3*f[featureIndex("bytes")])
	})
	if allocs != 0 {
		t.Fatalf("MLR fit/observe steady-state allocations = %v, want 0", allocs)
	}
	if len(m.Selected()) == 0 {
		t.Fatal("warm MLR selected no features; the guard exercised the cold path only")
	}
}

func TestHistoryTruncateKeepsNewest(t *testing.T) {
	h := newHistory(5)
	for i := 0; i < 7; i++ { // costs 2..6 survive the ring
		h.add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	h.truncate(2)
	if h.len() != 2 {
		t.Fatalf("Len = %d after Truncate(2), want 2", h.len())
	}
	costs := h.Costs()
	if costs[0] != 5 || costs[1] != 6 {
		t.Fatalf("kept costs %v, want [5 6] (newest, oldest-first)", costs)
	}
	if got := h.column(0); got[0] != 5 || got[1] != 6 {
		t.Fatalf("kept features %v, want [5 6]", got)
	}
	// The ring refills in place after a truncation.
	for i := 10; i < 14; i++ {
		h.add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	if h.len() != 5 {
		t.Fatalf("Len = %d after refill, want 5", h.len())
	}
	sum := 0.0
	for _, c := range h.Costs() {
		sum += c
	}
	if sum != 6+10+11+12+13 {
		t.Fatalf("refilled ring holds %v", h.Costs())
	}
	h.truncate(-1)
	if h.len() != 0 {
		t.Fatalf("Truncate(-1) left %d observations", h.len())
	}
}

// refHistory is History as it was before it went feature-major: one
// vector per ring slot, evicted vectors parked by truncate. It is the
// oracle for the column layout.
type refHistory struct {
	rows  [][]float64
	costs []float64
	next  int
	full  bool
}

func newRefHistory(n int) *refHistory {
	return &refHistory{rows: make([][]float64, n), costs: make([]float64, n)}
}

func (r *refHistory) len() int {
	if r.full {
		return len(r.rows)
	}
	return r.next
}

func (r *refHistory) add(f []float64, cost float64) {
	r.rows[r.next], r.costs[r.next] = slices.Clone(f), cost
	r.next = (r.next + 1) % len(r.rows)
	r.full = r.full || r.next == 0
}

func (r *refHistory) truncate(keep int) {
	n, c := r.len(), len(r.rows)
	keep = max(keep, 0)
	if keep >= n {
		return
	}
	start := 0
	if r.full {
		start = r.next
	}
	var rows [][]float64
	var costs []float64
	for l := 0; l < n; l++ {
		rows, costs = append(rows, r.rows[(start+l)%c]), append(costs, r.costs[(start+l)%c])
	}
	for i := 0; i < keep; i++ {
		r.rows[i], r.costs[i] = rows[n-keep+i], costs[n-keep+i]
	}
	for i := keep; i < c; i++ {
		if i < n {
			r.rows[i] = rows[i-keep]
		}
		r.costs[i] = 0
	}
	r.next, r.full = keep, false
}

func (r *refHistory) state() HistoryState {
	st := HistoryState{Feats: make([][]float64, len(r.rows)), Costs: slices.Clone(r.costs), Next: r.next, Full: r.full}
	for i, row := range r.rows {
		st.Feats[i] = slices.Clone(row)
	}
	return st
}

// TestHistoryColumnsMatchRows drives a History and the row-major oracle
// through the same random Add, Truncate and SetState steps (the state
// both the oracle's, stale parked rows included, and the History's own)
// and requires, after every step, the same length, feature j of slot i
// equal to row i's, the same costs, and State's stored rows equal to the
// oracle's.
func TestHistoryColumnsMatchRows(t *testing.T) {
	const capacity = 7
	h, ref := newHistory(capacity), newRefHistory(capacity)
	rng := hash.NewXorShift(23)
	f := make(features.Vector, features.NumFeatures)
	for step := 0; step < 3000; step++ {
		switch op := rng.Uint64() % 20; {
		case op < 15:
			for j := range f {
				f[j] = rng.Float64()
			}
			c := rng.Float64()
			h.add(f, c)
			ref.add(f, c)
		case op < 17:
			keep := int(rng.Uint64()%(capacity+2)) - 1
			h.truncate(keep)
			ref.truncate(keep)
		case op < 18:
			h = newHistory(capacity)
			if err := h.SetState(ref.state()); err != nil {
				t.Fatalf("step %d: SetState(oracle state): %v", step, err)
			}
		default:
			h2 := newHistory(capacity)
			if err := h2.SetState(h.State()); err != nil {
				t.Fatalf("step %d: SetState(own state): %v", step, err)
			}
			h = h2
		}
		n := ref.len()
		if h.len() != n {
			t.Fatalf("step %d: Len %d, oracle %d", step, h.len(), n)
		}
		if !slices.Equal(h.Costs(), ref.costs[:n]) {
			t.Fatalf("step %d: costs %v, oracle %v", step, h.Costs(), ref.costs[:n])
		}
		for j := 0; j < features.NumFeatures; j++ {
			col := h.column(j)
			for i := 0; i < n; i++ {
				if col[i] != ref.rows[i][j] {
					t.Fatalf("step %d: feature %d of slot %d = %v, oracle row %v", step, j, i, col[i], ref.rows[i][j])
				}
			}
		}
		st := h.State()
		for i := 0; i < n; i++ {
			if !slices.Equal(st.Feats[i], ref.rows[i]) {
				t.Fatalf("step %d: State row %d = %v, oracle %v", step, i, st.Feats[i], ref.rows[i])
			}
		}
	}
}

// TestHistoryStateRefusesDiscountedWeights: HistoryState.Weights is kept
// only so gob streams of builds that down-weighted history still parse.
// All-ones (or absent) weights restore; a single discounted slot marks a
// mid-drift checkpoint this build cannot resume bit-identically, and is
// refused rather than silently refitted unweighted.
func TestHistoryStateRefusesDiscountedWeights(t *testing.T) {
	h := newHistory(4)
	for i := 0; i < 6; i++ {
		h.add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	st := h.State()
	if st.Weights != nil {
		t.Fatalf("State wrote weights %v", st.Weights)
	}
	st.Weights = []float64{1, 1, 1, 1}
	if err := newHistory(4).SetState(st); err != nil {
		t.Fatalf("SetState (all-ones weights): %v", err)
	}
	st.Weights = []float64{1, 0.01, 1, 1}
	h2 := newHistory(4)
	if err := h2.SetState(st); err == nil {
		t.Fatal("SetState accepted a discounted slot")
	}
	if h2.len() != 0 {
		t.Fatalf("refused state still loaded %d observations", h2.len())
	}
}

// TestMLRNotifyChangeAdaptsFaster pins the point of the whole hook: after
// a coefficient change, a notified model re-converges on the new regime
// immediately, while the plain window needs the old regime to slide out.
func TestMLRNotifyChangeAdaptsFaster(t *testing.T) {
	run := func(notify bool) []float64 {
		m := NewMLR(DefaultHistory, DefaultThreshold)
		rng := hash.NewXorShift(11)
		f := func() features.Vector {
			return synth(map[int]float64{features.IdxPackets: 1000 + 500*rng.Float64()})
		}
		for i := 0; i < DefaultHistory; i++ {
			v := f()
			m.Observe(v, 10*v[features.IdxPackets])
		}
		// A handful of post-change observations land before any real
		// detector would fire; NotifyChange keeps exactly those.
		for i := 0; i < 8; i++ {
			v := f()
			m.Observe(v, 25*v[features.IdxPackets])
		}
		if notify {
			m.NotifyChange()
		}
		errs := make([]float64, 12)
		for i := range errs {
			v := f()
			want := 25 * v[features.IdxPackets] // new regime
			errs[i] = stats.RelErr(m.Predict(v), want)
			m.Observe(v, want)
		}
		return errs
	}
	off := run(false)
	on := run(true)
	// A few bins in, the notified model must be locked on while the
	// plain window is still dominated by stale observations.
	if on[8] > 0.05 {
		t.Fatalf("notified model still off at bin 8: relerr %v (%v)", on[8], on)
	}
	if off[8] < 3*on[8] {
		t.Fatalf("plain window recovered suspiciously fast: off %v vs on %v", off[8], on[8])
	}
}

// The refit after a change verdict must be as allocation-free as the
// steady state once Truncate's compaction scratch exists: evicted slots
// park their feature buffers, so the ring refills without allocating.
func TestMLRFitZeroAllocAfterNotifyChange(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := make(features.Vector, features.NumFeatures)
	rng := hash.NewXorShift(17)
	fill := func() {
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
	}
	for i := 0; i < DefaultHistory+8; i++ {
		fill()
		m.Observe(f, 5000+2*f[features.IdxPackets])
		m.Predict(f)
	}
	m.NotifyChange() // lazily allocates the truncation scratch
	if got := m.History().len(); got != minHistory {
		t.Fatalf("NotifyChange left %d observations, want minHistory = %d", got, minHistory)
	}
	allocs := testing.AllocsPerRun(DefaultHistory, func() {
		fill()
		m.Predict(f)
		m.Observe(f, 5000+2*f[features.IdxPackets])
	})
	if allocs != 0 {
		t.Fatalf("MLR refit allocations while the truncated ring refills = %v, want 0", allocs)
	}
}
