// Package predict implements the resource-usage prediction of thesis
// Chapter 3: an on-line multiple linear regression over a sliding
// history of (feature vector, cost) observations, with Fast
// Correlation-Based Filter feature selection, plus the two baseline
// predictors the chapter compares against (EWMA and simple linear
// regression).
package predict

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// Predictor estimates the processing cost of a batch from its traffic
// features. Implementations treat the monitored query as a black box:
// they see only feature vectors and realized costs.
type Predictor interface {
	// Predict returns the estimated cost (in cycles) of processing the
	// batch whose features are f.
	Predict(f features.Vector) float64
	// Observe feeds back the measured cost of the batch whose features
	// are f, extending the model's history.
	Observe(f features.Vector, cost float64)
	// Name identifies the method ("mlr", "slr", "ewma"); snapshots
	// record it as the predictor kind.
	Name() string
}

// History is a sliding window of (features, cost) observations — the
// "n" of Equation 3.2. The zero value is unusable; construct with
// newHistory.
//
// The ring is stored feature-major: cols[j][s] is feature j of ring
// slot s, so feature j across the stored observations is cols[j][:len()]
// — the column FCBF and the least-squares fit read, in place, in slot
// order. Slot order is the ring's and does not change with the layout:
// OLS and Pearson sum in slot order, so it is part of every fitted bit.
type History struct {
	capacity int
	cols     [features.NumFeatures][]float64
	costs    []float64
	next     int
	full     bool

	// tmp is truncate's compaction scratch, allocated on the first
	// truncation (a rare event, not the steady state).
	tmp []float64
}

// newHistory returns a history holding up to n observations.
func newHistory(n int) *History {
	if n < 1 {
		panic("predict: history capacity must be positive")
	}
	h := &History{capacity: n, costs: make([]float64, n)}
	flat := make([]float64, features.NumFeatures*n)
	for j := range h.cols {
		h.cols[j] = flat[j*n : (j+1)*n : (j+1)*n]
	}
	return h
}

// add appends an observation (f holds at least NumFeatures values),
// evicting the oldest when full. The vector is copied into the ring, so
// a history never allocates after construction.
func (h *History) add(f features.Vector, cost float64) {
	for j := range h.cols {
		h.cols[j][h.next] = f[j]
	}
	h.costs[h.next] = cost
	h.next = (h.next + 1) % h.capacity
	if h.next == 0 {
		h.full = true
	}
}

// len returns the number of stored observations.
func (h *History) len() int {
	if h.full {
		return h.capacity
	}
	return h.next
}

// meanCost returns the average stored cost (0 when empty), the cold
// start fallback prediction. The ring's cost slice is averaged directly
// (means are order-invariant), so no copy is made.
func (h *History) meanCost() float64 {
	return stats.Mean(h.costs[:h.len()])
}

// truncate drops every observation except the newest keep, compacting
// them into slots 0..keep-1 in time order.
func (h *History) truncate(keep int) {
	n := h.len()
	if keep < 0 {
		keep = 0
	}
	if keep >= n {
		return
	}
	if h.tmp == nil {
		h.tmp = make([]float64, h.capacity)
	}
	start := 0 // the oldest stored slot
	if h.full {
		start = h.next
	}
	for j := range h.cols {
		h.keepNewest(h.cols[j], start, n, keep)
	}
	h.keepNewest(h.costs, start, n, keep)
	clear(h.costs[keep:])
	h.next = keep
	h.full = false
}

// keepNewest moves the newest keep of the n values the ring holds in
// col, oldest-of-kept first, into col[:keep].
func (h *History) keepNewest(col []float64, start, n, keep int) {
	for l := range keep {
		h.tmp[l] = col[(start+n-keep+l)%h.capacity]
	}
	copy(col, h.tmp[:keep])
}

// HistoryState is the portable form of a History: the raw ring layout,
// slot order included, one row per stored slot. The slot order matters
// for bit-identity — OLS and Pearson iterate the ring in slot order, and
// floating-point sums depend on summation order — so a checkpoint must
// round-trip the ring as laid out, not merely the logical window.
type HistoryState struct {
	Feats [][]float64
	Costs []float64
	Next  int
	Full  bool
	// Weights is decode-only: builds that answered a change verdict by
	// down-weighting old rows wrote it, and gob needs the field to
	// parse their streams. State never sets it; SetState refuses any
	// weight other than 1.
	Weights []float64
}

// State deep-copies the ring for a checkpoint. Slots the ring does not
// count as stored are written as nil rows.
func (h *History) State() HistoryState {
	st := HistoryState{
		Feats: make([][]float64, h.capacity),
		Costs: slices.Clone(h.costs),
		Next:  h.next,
		Full:  h.full,
	}
	for i := range h.len() {
		row := make([]float64, features.NumFeatures)
		for j := range h.cols {
			row[j] = h.cols[j][i]
		}
		st.Feats[i] = row
	}
	return st
}

// SetState restores a ring captured by State into a history of the same
// capacity, preserving the slot layout exactly. A state CheckState
// refuses is not installed.
func (h *History) SetState(st HistoryState) error {
	if err := h.CheckState(st); err != nil {
		return err
	}
	n := st.Next
	if st.Full {
		n = h.capacity
	}
	copy(h.costs, st.Costs)
	for i, f := range st.Feats[:n] {
		for j, x := range f {
			h.cols[j][i] = x
		}
	}
	h.next = st.Next
	h.full = st.Full
	return nil
}

// CheckState reports whether SetState would install st, without
// installing it.
func (h *History) CheckState(st HistoryState) error {
	if len(st.Feats) != h.capacity || len(st.Costs) != h.capacity {
		return fmt.Errorf("predict: history state capacity %d does not match %d", len(st.Feats), h.capacity)
	}
	if st.Next < 0 || st.Next >= h.capacity {
		return fmt.Errorf("predict: history state next=%d out of range for capacity %d", st.Next, h.capacity)
	}
	// The state may come off a socket or a file: every slot the ring
	// counts as stored must hold a whole feature vector, or the next fit
	// indexes past it.
	n := st.Next
	if st.Full {
		n = h.capacity
	}
	for i, f := range st.Feats[:n] {
		if len(f) != features.NumFeatures {
			return fmt.Errorf("predict: history state slot %d of %d stored holds %d features, want %d", i, n, len(f), features.NumFeatures)
		}
	}
	if len(st.Weights) > h.capacity {
		return fmt.Errorf("predict: history state carries %d weights for capacity %d", len(st.Weights), h.capacity)
	}
	// A mid-drift checkpoint of a discounting build: its fit weighted
	// these rows, this one cannot, so the resumed run would diverge.
	for i, w := range st.Weights {
		if w != 1 {
			return fmt.Errorf("predict: history state carries weight %g in slot %d: written by a build that discounted history after a change verdict, which this build (truncation only) cannot resume bit-identically", w, i)
		}
	}
	return nil
}

// fcbfCand is one phase-1 survivor: a feature index and its relevance.
type fcbfCand struct {
	idx int
	r   float64
}

// fcbfScratch holds the intermediates of the thesis' variant of the Fast
// Correlation-Based Filter (§3.2.3), whose goodness measure is the
// absolute Pearson coefficient rather than symmetrical uncertainty, so
// the per-bin refit reuses them instead of allocating. The zero value
// is ready to use.
type fcbfScratch struct {
	cands   []fcbfCand
	removed []bool
	// Phase 2's row scratch: the later survivors' columns, their
	// positions in cands and their correlations with the row's survivor.
	later, pos []int
	rs         []float64
	// Every column and the response centred once per selection: dev is
	// flat (column j's own slot at [j*n, (j+1)*n), then the response,
	// then a sink for the filler lanes of centre4), devs[j] is column j's
	// deviations (its own slot, or the round reference's), ss each one's
	// sum of squared deviations (the response's last) and rel each
	// column's relevance |r(X_j, y)|: a redundancy correlation is then
	// one dot product.
	dev  []float64
	devs [][]float64
	ss   []float64
	rel  []float64
	// shared[j]: column j is the reference's of ref, the round this
	// selection runs in (nil outside a shared refit).
	shared []bool
	ref    *Refit
}

// centreInto writes xs minus its mean into dev and returns the sum of
// the squared deviations, with stats.Pearson's operation order.
func centreInto(dev, xs []float64) float64 {
	mean := stats.Mean(xs)
	var ss float64
	for i, x := range xs {
		d := x - mean
		dev[i] = d
		ss += d * d
	}
	return ss
}

// centre4 centres four columns against the centred response dy: one
// sweep sums them, a second writes their deviations into dev and
// accumulates each one's squared deviations and cross-product with dy.
// Each of the twelve accumulators adds in row order, as stats.Mean and
// stats.Pearson do, so every value is bit-equal to theirs; four columns
// per sweep only interleave independent chains.
func centre4(dev, xs *[4][]float64, dy []float64) (ss, sxy [4]float64) {
	n := len(dy)
	x0, x1, x2, x3 := xs[0][:n], xs[1][:n], xs[2][:n], xs[3][:n]
	var m0, m1, m2, m3 float64
	for i := range n {
		m0 += x0[i]
		m1 += x1[i]
		m2 += x2[i]
		m3 += x3[i]
	}
	fn := float64(n)
	m0, m1, m2, m3 = m0/fn, m1/fn, m2/fn, m3/fn
	d0, d1, d2, d3 := dev[0][:n], dev[1][:n], dev[2][:n], dev[3][:n]
	// Scalar accumulators stay in registers; array elements would not.
	var s0, s1, s2, s3, p0, p1, p2, p3 float64
	for i, y := range dy {
		a, b, c, d := x0[i]-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
		d0[i], d1[i], d2[i], d3[i] = a, b, c, d
		s0 += a * a
		s1 += b * b
		s2 += c * c
		s3 += d * d
		p0 += a * y
		p1 += b * y
		p2 += c * y
		p3 += d * y
	}
	return [4]float64{s0, s1, s2, s3}, [4]float64{p0, p1, p2, p3}
}

// dot8 returns the dot products of x with eight columns, each summed in
// row order: the cross-product half of centre4 for columns already
// centred (x the centred response), or eight redundancy correlations of
// one column at once. Eight independent chains keep both adders busy.
func dot8(ds *[8][]float64, x []float64) [8]float64 {
	n := len(x)
	d0, d1, d2, d3 := ds[0][:n], ds[1][:n], ds[2][:n], ds[3][:n]
	d4, d5, d6, d7 := ds[4][:n], ds[5][:n], ds[6][:n], ds[7][:n]
	var p0, p1, p2, p3, p4, p5, p6, p7 float64
	for i, y := range x {
		p0 += d0[i] * y
		p1 += d1[i] * y
		p2 += d2[i] * y
		p3 += d3[i] * y
		p4 += d4[i] * y
		p5 += d5[i] * y
		p6 += d6[i] * y
		p7 += d7[i] * y
	}
	return [8]float64{p0, p1, p2, p3, p4, p5, p6, p7}
}

// centre fills the scratch for one selection over cols and y, with
// stats.Pearson's guards: a column of the wrong length, or any column
// when there are under two rows, gets a zero sum of squares, which reads
// as "correlates with nothing". The response is centred first. Inside a
// shared round (ref non-nil, see Refit; an MLR refit, whose columns all
// hold n rows) the first selection adopts its columns as the round's
// reference, and a later one takes every column
// bitwise equal to the reference's as shared: its deviations and sum of
// squares are the reference's, and only its cross-product with dy is
// computed, eight columns to a dot8 pass. The other columns go four to
// a centre4 pass, a short last group of either padded with the response,
// whose deviations land in the sink.
func (sc *fcbfScratch) centre(cols [][]float64, y []float64, ref *Refit) {
	n, resp := len(y), len(cols)
	sc.dev = slices.Grow(sc.dev[:0], (resp+2)*n)[:(resp+2)*n]
	sc.ss = slices.Grow(sc.ss[:0], resp+1)[:resp+1]
	sc.rel = slices.Grow(sc.rel[:0], resp)[:resp]
	sc.devs = slices.Grow(sc.devs[:0], resp)[:resp]
	sc.shared = slices.Grow(sc.shared[:0], resp)[:resp]
	clear(sc.ss)
	clear(sc.rel)
	clear(sc.shared)
	sc.ref = nil
	if n < 2 {
		return
	}
	for j := range sc.devs {
		sc.devs[j] = sc.dev[j*n : (j+1)*n]
	}
	adopt := false
	if ref != nil && resp == features.NumFeatures {
		switch ref.n {
		case 0:
			adopt = true
			ref.adopt(cols, n)
		case n:
			for j, x := range cols {
				sc.shared[j] = equalBits(x, ref.col(j))
			}
		}
		for j, sh := range sc.shared {
			if adopt || sh {
				sc.shared[j] = true
				sc.devs[j] = ref.dev[j*n : (j+1)*n]
				sc.ref = ref
			}
		}
	}

	dy, sink := sc.dev[resp*n:(resp+1)*n], sc.dev[(resp+1)*n:]
	ssy := centreInto(dy, y)
	sc.ss[resp] = ssy
	var cg [4]int // the next centre4 group's columns
	var xg [8]int // the next dot8 group's columns
	nc, nx := 0, 0
	for j := range resp {
		switch {
		case len(cols[j]) != n:
		case sc.shared[j] && !adopt:
			xg[nx] = j
			if nx++; nx == len(xg) {
				sc.crossGroup(xg[:], dy, ssy)
				nx = 0
			}
		default:
			cg[nc] = j
			if nc++; nc == len(cg) {
				sc.centreGroup(cg[:], cols, y, dy, sink, ssy)
				nc = 0
			}
		}
	}
	sc.crossGroup(xg[:nx], dy, ssy)
	sc.centreGroup(cg[:nc], cols, y, dy, sink, ssy)
	if adopt {
		copy(ref.ss[:], sc.ss[:resp])
	}
}

// centreGroup centres up to four columns (idx) in one centre4 pass,
// padded with the response, and records their sums of squares and
// relevances.
func (sc *fcbfScratch) centreGroup(idx []int, cols [][]float64, y, dy, sink []float64, ssy float64) {
	if len(idx) == 0 {
		return
	}
	var xs, devs [4][]float64
	for k := range xs {
		xs[k], devs[k] = y, sink
		if k < len(idx) {
			xs[k], devs[k] = cols[idx[k]], sc.devs[idx[k]]
		}
	}
	ss, sxy := centre4(&devs, &xs, dy)
	for k, j := range idx {
		sc.ss[j] = ss[k]
		sc.relevance(j, sxy[k], ssy)
	}
}

// crossGroup takes up to eight shared columns (idx) through one dot8
// pass, padded with the response, with the reference's sums of squares.
func (sc *fcbfScratch) crossGroup(idx []int, dy []float64, ssy float64) {
	if len(idx) == 0 {
		return
	}
	var devs [8][]float64
	for k := range devs {
		devs[k] = dy
		if k < len(idx) {
			devs[k] = sc.devs[idx[k]]
		}
	}
	sxy := dot8(&devs, dy)
	for k, j := range idx {
		sc.ss[j] = sc.ref.ss[j]
		sc.relevance(j, sxy[k], ssy)
	}
}

// relevance records |r(X_j, y)| from the column's cross-product with the
// centred response, as stats.Pearson computes it.
func (sc *fcbfScratch) relevance(j int, sxy, ssy float64) {
	if sc.ss[j] != 0 && ssy != 0 {
		sc.rel[j] = math.Abs(sxy / math.Sqrt(sc.ss[j]*ssy))
	}
}

// corrs writes |stats.Pearson| of column a with each column of bs into
// rs, bit for bit, from their centred forms, eight dot products to a
// dot8 pass. Two shared columns' correlation is the reference's,
// computed once per round.
func (sc *fcbfScratch) corrs(a int, bs []int, rs []float64) {
	var grp [8]int // positions in bs of the next dot8 pass
	ng := 0
	for k, b := range bs {
		rs[k] = 0
		if sc.ss[a] == 0 || sc.ss[b] == 0 {
			continue
		}
		if sc.shared[a] && sc.shared[b] {
			if r, ok := sc.ref.corr(a, b); ok {
				rs[k] = r
				continue
			}
		}
		grp[ng] = k
		if ng++; ng == len(grp) {
			sc.corrGroup(a, grp[:], bs, rs)
			ng = 0
		}
	}
	sc.corrGroup(a, grp[:ng], bs, rs)
}

// corrGroup computes the correlations of column a with up to eight
// columns bs[grp[k]] in one dot8 pass, padded with a itself.
func (sc *fcbfScratch) corrGroup(a int, grp []int, bs []int, rs []float64) {
	if len(grp) == 0 {
		return
	}
	da := sc.devs[a]
	var dbs [8][]float64
	for k := range dbs {
		dbs[k] = da
		if k < len(grp) {
			dbs[k] = sc.devs[bs[grp[k]]]
		}
	}
	sxy := dot8(&dbs, da)
	for k, g := range grp {
		b := bs[g]
		r := math.Abs(sxy[k] / math.Sqrt(sc.ss[a]*sc.ss[b]))
		rs[g] = r
		if sc.shared[a] && sc.shared[b] {
			sc.ref.setCorr(a, b, r)
		}
	}
}

// selectInto is the FCBF selection of cols for response y, appending
// the selected indices to out (usually a reused slice truncated to zero
// length) with all intermediates taken from the scratch: no steady-state
// allocation. ref is the shared round it runs in, or nil.
//
// Phase 1 keeps features with |r(X_j, y)| >= threshold (falling back to
// the single best feature if none qualifies). Phase 2 walks the
// survivors in descending relevance and removes every later feature
// whose correlation with an earlier survivor exceeds its own
// correlation with the response.
func (sc *fcbfScratch) selectInto(out []int, cols [][]float64, y []float64, threshold float64, ref *Refit) []int {
	type cand = fcbfCand
	sc.centre(cols, y, ref)

	cands := sc.cands[:0]
	best := cand{idx: -1}
	for j, r := range sc.rel {
		if r > best.r {
			best = cand{idx: j, r: r}
		}
		if r >= threshold {
			cands = append(cands, cand{idx: j, r: r})
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		if best.idx < 0 {
			return out
		}
		return append(out, best.idx)
	}
	// Descending relevance (stable on ties by original index).
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && (cands[k].r > cands[k-1].r ||
			(cands[k].r == cands[k-1].r && cands[k].idx < cands[k-1].idx)); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	if cap(sc.removed) < len(cands) {
		sc.removed = make([]bool, len(cands))
		sc.later = make([]int, 0, len(cands))
		sc.pos = make([]int, 0, len(cands))
		sc.rs = make([]float64, len(cands))
	}
	removed := sc.removed[:len(cands)]
	clear(removed)
	for i := range cands {
		if removed[i] {
			continue
		}
		// Every later survivor's correlation with survivor i, then the
		// removals: a removal within the row only marks the column it
		// tests, so no check in the row depends on another.
		later, pos := sc.later[:0], sc.pos[:0]
		for j := i + 1; j < len(cands); j++ {
			if !removed[j] {
				later, pos = append(later, cands[j].idx), append(pos, j)
			}
		}
		rs := sc.rs[:len(later)]
		sc.corrs(cands[i].idx, later, rs)
		for k, j := range pos {
			// The epsilon absorbs rounding in the two correlations; without
			// it an exactly-duplicated column can survive its own
			// redundancy check.
			if rs[k] >= cands[j].r-1e-9 {
				removed[j] = true
			}
		}
	}
	for i, c := range cands {
		if !removed[i] {
			out = append(out, c.idx)
		}
	}
	return out
}

// equalBits reports whether a and b hold the same float64 bit patterns
// (+0 and -0 differ, a NaN equals only its own bits), compared as bytes.
func equalBits(a, b []float64) bool {
	return len(a) == len(b) && bytes.Equal(floatBytes(a), floatBytes(b))
}

// floatBytes views xs as its raw bytes, without copying.
func floatBytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// Refit shares the work of one round of MLR refits — the engine's query
// set in one bin — between its members, with every member's result
// bit-equal to its own Predict. The first member that fits in the round
// is its reference: its history columns are copied and centred once. A
// later member's column is shared when it holds the reference's bits
// over the same number of rows, in the same slot order; it then reuses
// the reference's deviations and sum of squares and computes only its
// cross-product with its own centred costs, and a phase-2 correlation
// of two shared columns is computed once per round. Members' op
// counters still count a full refit each.
//
// Open starts a round and forgets the previous one, so nothing a round
// keeps outlives it: call Open before the first Predict of every round.
// The zero value is ready to use; a Refit is not safe for concurrent
// use.
type Refit struct {
	n   int       // the reference's rows; 0 while the round has none
	x   []float64 // its columns, flat: feature j at [j*n, (j+1)*n)
	dev []float64 // their deviations from their means, same layout
	ss  [features.NumFeatures]float64
	// memo[a][b] (a < b) holds the shared columns' correlation when
	// stamp[a][b] is round+1 (a zero stamp is never current).
	memo  [features.NumFeatures][features.NumFeatures]float64
	stamp [features.NumFeatures][features.NumFeatures]uint64
	round uint64
}

// Open starts a new round: the next member to fit becomes the reference.
func (r *Refit) Open() {
	r.n = 0
	r.round++
}

// Predict is m.Predict(f), sharing the work of the round r is in.
func (r *Refit) Predict(m *MLR, f features.Vector) float64 { return m.refit(f, r) }

// adopt makes cols (n rows each) the round's reference columns.
func (r *Refit) adopt(cols [][]float64, n int) {
	r.n = n
	r.x = linalg.GrowFloats(r.x, len(cols)*n)
	r.dev = linalg.GrowFloats(r.dev, len(cols)*n)
	for j, x := range cols {
		copy(r.x[j*n:(j+1)*n], x)
	}
}

// col returns the reference's column j.
func (r *Refit) col(j int) []float64 { return r.x[j*r.n : (j+1)*r.n] }

func (r *Refit) corr(a, b int) (float64, bool) {
	a, b = min(a, b), max(a, b)
	return r.memo[a][b], r.stamp[a][b] == r.round+1
}

func (r *Refit) setCorr(a, b int, v float64) {
	a, b = min(a, b), max(a, b)
	r.memo[a][b], r.stamp[a][b] = v, r.round+1
}

// MLR is the thesis' predictor: FCBF feature selection plus an
// SVD-solved multiple linear regression, refitted on every prediction so
// the model tracks traffic changes (§3.1). Construct with NewMLR.
type MLR struct {
	hist      *History
	threshold float64

	selected []int
	coef     []float64 // intercept followed by per-selected coefficients

	// Fit scratch, reused across predictions so the per-bin refit is
	// allocation-free in steady state (§3.1 refits on every prediction;
	// the thesis requires the prediction subsystem's own overhead to
	// stay negligible).
	cols   [features.NumFeatures][]float64 // views of the history's columns
	fcbf   fcbfScratch
	design [][]float64 // the design matrix's columns: ones, then the selected views
	ones   []float64
	ws     linalg.Workspace

	// Op counters for the overhead accounting of Table 3.4.
	FCBFOps int64 // scalar multiplies spent in correlation scans
	FitOps  int64 // scalar multiplies spent in the OLS solve
}

// Prices of the op counters in model cycles: what the engine charges
// the prediction subsystem per FCBFOps and per FitOps (Table 3.4).
const (
	FCBFCostPerOp = 4 // per correlation multiply-accumulate
	FitCostPerOp  = 6 // per OLS scalar multiply
)

// minHistory is the observation count below which an MLR's Predict
// falls back to the mean observed cost (a fresh model with fewer rows
// than predictors is meaningless).
const minHistory = 8

// DefaultHistory and DefaultThreshold are the operating point chosen in
// §3.3.1: 60 batches (6 s) of history and an FCBF threshold of 0.6.
const (
	DefaultHistory   = 60
	DefaultThreshold = 0.6
)

// NewMLR returns an MLR predictor with the given history length and
// FCBF threshold.
func NewMLR(history int, threshold float64) *MLR {
	return &MLR{
		hist:      newHistory(history),
		threshold: threshold,
	}
}

// Name implements Predictor.
func (m *MLR) Name() string { return "mlr" }

// Observe implements Predictor.
func (m *MLR) Observe(f features.Vector, cost float64) { m.hist.add(f, cost) }

// History exposes the predictor's observation window (used by the load
// shedding system to overwrite context-switch-corrupted measurements
// with predictions, §3.2.4).
func (m *MLR) History() *History { return m.hist }

// Selected returns the feature indices chosen by the last fit.
func (m *MLR) Selected() []int { return m.selected }

// Predict implements Predictor: select features, fit OLS on the current
// history and evaluate the model at f. FCBF and the design matrix read
// the history's columns and costs where they lie; the rest of the refit
// runs in the predictor's scratch buffers, so after warm-up it performs
// no allocations.
func (m *MLR) Predict(f features.Vector) float64 { return m.refit(f, nil) }

// refit is Predict inside the shared round ref (nil: on its own).
func (m *MLR) refit(f features.Vector, ref *Refit) float64 {
	n := m.hist.len()
	if n < minHistory {
		return m.hist.meanCost()
	}
	y := m.hist.costs[:n]
	for j := range m.cols {
		m.cols[j] = m.hist.cols[j][:n]
	}
	cols := m.cols[:]
	m.selected = m.fcbf.selectInto(m.selected[:0], cols, y, m.threshold, ref)
	m.FCBFOps += int64(n * features.NumFeatures)
	if len(m.selected) == 0 {
		return m.hist.meanCost()
	}

	p := len(m.selected)
	m.ones = linalg.GrowFloats(m.ones, n)
	for i := range m.ones {
		m.ones[i] = 1
	}
	m.design = append(m.design[:0], m.ones)
	for _, j := range m.selected {
		m.design = append(m.design, cols[j])
	}
	m.coef = m.ws.LeastSquares(m.coef[:0], m.design, y)
	m.FitOps += int64(n * (p + 1) * (p + 1))

	pred := m.coef[0]
	for k, j := range m.selected {
		pred += m.coef[k+1] * f[j]
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// NotifyChange tells the predictor an external change detector decided
// the traffic regime shifted: every observation but the newest
// minHistory is dropped, so the next Predict re-selects features and
// refits on post-change rows only. Truncation rather than
// down-weighting because FCBF selects on raw columns — discounted rows
// would still steer selection even where the fit ignores them — and
// because it measured better on every anomaly of the robust catalog
// (DESIGN.md section 3).
func (m *MLR) NotifyChange() { m.hist.truncate(minHistory) }

// SLR is the simple linear regression baseline (§3.4.1): one fixed
// predictor variable, the packet count unless configured otherwise.
type SLR struct {
	hist    *History
	Feature int
}

// NewSLR returns an SLR predictor over the given history length using
// feature index feat (typically features.IdxPackets).
func NewSLR(history, feat int) *SLR {
	return &SLR{hist: newHistory(history), Feature: feat}
}

// Name implements Predictor.
func (s *SLR) Name() string { return "slr" }

// History exposes the predictor's observation window for checkpoints.
func (s *SLR) History() *History { return s.hist }

// Observe implements Predictor.
func (s *SLR) Observe(f features.Vector, cost float64) { s.hist.add(f, cost) }

// Predict implements Predictor using the closed-form OLS line fit.
func (s *SLR) Predict(f features.Vector) float64 {
	n := s.hist.len()
	if n < 2 {
		return s.hist.meanCost()
	}
	xs, ys := s.hist.cols[s.Feature][:n], s.hist.costs[:n]
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return my
	}
	b1 := sxy / sxx
	b0 := my - b1*mx
	pred := b0 + b1*f[s.Feature]
	if pred < 0 {
		pred = 0
	}
	return pred
}

// EWMA is the exponentially weighted moving average baseline (§3.4.1,
// Equation 3.4). It ignores traffic features entirely — which is
// exactly why it trails traffic changes.
type EWMA struct {
	avg *stats.EWMA
}

// DefaultEWMAAlpha is the weight the thesis found best (Figure 3.10).
const DefaultEWMAAlpha = 0.3

// NewEWMA returns an EWMA predictor with the given weight.
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{avg: stats.NewEWMA(alpha)}
}

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// State returns the average and seeded flag for a checkpoint.
func (e *EWMA) State() (value float64, seeded bool) {
	return e.avg.Value(), e.avg.Seeded()
}

// Restore sets the average and seeded flag captured by State.
func (e *EWMA) Restore(value float64, seeded bool) { e.avg.Restore(value, seeded) }

// Observe implements Predictor.
func (e *EWMA) Observe(_ features.Vector, cost float64) { e.avg.Update(cost) }

// Predict implements Predictor.
func (e *EWMA) Predict(_ features.Vector) float64 { return e.avg.Value() }
