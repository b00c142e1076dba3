package loadshed

import (
	"math"

	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Reference produces the ground-truth run: unlimited capacity, no
// shedding, no measurement noise. Accuracy of every other run is
// measured against it (§2.2.1 — "the actual value in our experiments is
// obtained from a complete packet trace").
func Reference(src trace.Source, qs []queries.Query, seed uint64) *RunResult {
	sys := New(Config{
		Scheme:     NoShed,
		Capacity:   math.Inf(1),
		Seed:       seed,
		NoiseSigma: -1, // sentinel: withDefaults leaves negative alone
	}, qs)
	return sys.Run(src)
}

// Errors computes per-query, per-interval accuracy errors of run got
// against run ref. The metric queries supply the Error implementations;
// they are matched to result columns by name.
func Errors(metric []queries.Query, got, ref *RunResult) map[string][]float64 {
	out := map[string][]float64{}
	for qi, errs := range columnErrors(metric, got, ref) {
		if errs != nil {
			out[got.Queries[qi]] = errs
		}
	}
	return out
}

// columnErrors is Errors by result column of got: nil for a column
// without a reference twin or a metric query.
func columnErrors(metric []queries.Query, got, ref *RunResult) [][]float64 {
	byName := make(map[string]queries.Query, len(metric))
	for _, q := range metric {
		byName[q.Name()] = q
	}
	n := len(got.Intervals)
	if len(ref.Intervals) < n {
		n = len(ref.Intervals)
	}
	// Compare the common prefix of the two query sets: runs with
	// mid-run arrivals carry extra trailing queries that the reference
	// run (and often the metric set) does not know about.
	nq := len(got.Queries)
	if len(ref.Queries) < nq {
		nq = len(ref.Queries)
	}
	out := make([][]float64, len(got.Queries))
	for qi := 0; qi < nq; qi++ {
		name := got.Queries[qi]
		if name != ref.Queries[qi] {
			continue // different query at this slot (e.g. a wrapped clone)
		}
		mq, ok := byName[name]
		if !ok {
			continue // no metric registered (e.g. a misbehaving clone)
		}
		errs := make([]float64, 0, n)
		for iv := 0; iv < n; iv++ {
			gr := got.Intervals[iv].Results
			rr := ref.Intervals[iv].Results
			if qi >= len(gr) || qi >= len(rr) || gr[qi] == nil || rr[qi] == nil {
				continue // query not yet present in this interval
			}
			e := mq.Error(gr[qi], rr[qi])
			errs = append(errs, stats.Clamp(e, 0, 1))
		}
		out[qi] = errs
	}
	return out
}

// MeanErrors averages the per-interval errors of Errors.
func MeanErrors(metric []queries.Query, got, ref *RunResult) map[string]float64 {
	out := map[string]float64{}
	for name, errs := range Errors(metric, got, ref) {
		out[name] = stats.Mean(errs)
	}
	return out
}

// Accuracies converts per-interval errors into the accuracy model of
// Figure 5.3: accuracy is 1−ε when the query ran at or above its
// minimum sampling rate for the whole interval, and 0 otherwise
// (a disabled or starved query returns worthless results). A column
// without errors of its own — a late arrival sharing a resident
// query's name — does not displace the resident's accuracies.
func Accuracies(metric []queries.Query, got, ref *RunResult, binsPerInterval int) map[string][]float64 {
	errs := columnErrors(metric, got, ref)
	minRates := map[string]float64{}
	for _, q := range metric {
		minRates[q.Name()] = q.MinRate()
	}
	out := make(map[string][]float64, len(errs))
	for qi, name := range got.Queries {
		es := errs[qi]
		if _, seen := out[name]; seen && es == nil {
			continue
		}
		accs := make([]float64, len(es))
		for iv := range es {
			acc := 1 - es[iv]
			// Check the applied rates across the interval's bins.
			lo, hi := iv*binsPerInterval, (iv+1)*binsPerInterval
			if hi > len(got.Bins) {
				hi = len(got.Bins)
			}
			for b := lo; b < hi; b++ {
				if got.Bins[b].Rates[qi] < minRates[name] {
					acc = 0
					break
				}
			}
			accs[iv] = stats.Clamp(acc, 0, 1)
		}
		out[name] = accs
	}
	return out
}

// MeasureLoad runs a lossless predictive probe and returns the mean
// per-bin platform+prediction overhead and the mean per-bin query
// demand at full rate. Capacity budgets must cover both: the thesis'
// "C" (the minimum capacity at which no sampling occurs, §5.5.3) is
// their sum.
func MeasureLoad(src trace.Source, qs []queries.Query, seed uint64) (overhead, demand float64) {
	sys := New(Config{
		Scheme:     Predictive,
		Capacity:   math.Inf(1),
		Seed:       seed,
		NoiseSigma: -1,
	}, qs)
	// The probe only needs two running sums, so it streams instead of
	// accumulating a RunResult: measuring a multi-hour trace costs the
	// same memory as measuring a ten-second one.
	var n int
	sys.Stream(src, SinkFuncs{Bin: func(b *BinStats) {
		overhead += b.Overhead
		demand += b.Used
		n++
	}})
	if n == 0 {
		return 0, 0
	}
	return overhead / float64(n), demand / float64(n)
}

// MeasureCapacity returns the thesis' C: the minimum per-bin capacity
// at which the predictive system sheds nothing. Overload-level
// experiments use capacity = C × (1 − K).
func MeasureCapacity(src trace.Source, qs []queries.Query, seed uint64) float64 {
	o, d := MeasureLoad(src, qs, seed)
	return o + d
}

// CapacityForOverload returns a capacity at which the query demand is
// `factor` times the cycles left after overhead — "2x overload" with
// the platform costs properly paid for.
func CapacityForOverload(src trace.Source, qs []queries.Query, seed uint64, factor float64) float64 {
	o, d := MeasureLoad(src, qs, seed)
	return o + d/factor
}

// TotalDrops sums the uncontrolled capture drops of a run.
func (r *RunResult) TotalDrops() int {
	n := 0
	for i := range r.Bins {
		n += r.Bins[i].DropPkts
	}
	return n
}

// TotalWirePkts sums the packets offered to the system.
func (r *RunResult) TotalWirePkts() int {
	n := 0
	for i := range r.Bins {
		n += r.Bins[i].WirePkts
	}
	return n
}

// UsedPerBin returns the per-bin total query cycles, the series behind
// the Figure 4.1 CDF.
func (r *RunResult) UsedPerBin() []float64 {
	out := make([]float64, len(r.Bins))
	for i := range r.Bins {
		out[i] = r.Bins[i].Used
	}
	return out
}
