package experiments

import (
	"math"

	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/pkg/loadshed"
)

// predRun is one Chapter 3 prediction run, read off the engine: the
// queries run at full rate (unlimited capacity, so nothing is shed) and
// without measurement noise — §3.3 isolates the predictor from noise
// sources — while each query's predictor estimates every bin's cost
// from its features before the query runs.
type predRun struct {
	Queries []string
	// Err[q][bin] is the relative prediction error after warmup.
	Err [][]float64
	// Pred and Actual hold the raw per-bin series.
	Pred   [][]float64
	Actual [][]float64
	// Features[q][f] counts how often feature f was selected (MLR only).
	Features []map[int]int
	// FeatureCycles / FCBFCycles / MLRCycles are what the engine charged
	// the prediction subsystem (Table 3.4): feature extraction, feature
	// selection and the fit, in cost-model cycles.
	FeatureCycles, FCBFCycles, MLRCycles float64
	Bins                                 int
}

// predictorMaker builds a fresh predictor per query.
type predictorMaker func() predict.Predictor

func mkMLR(history int, threshold float64) predictorMaker {
	return func() predict.Predictor { return predict.NewMLR(history, threshold) }
}

func mkSLR() predictorMaker {
	return func() predict.Predictor { return predict.NewSLR(predict.DefaultHistory, features.IdxPackets) }
}

func mkEWMA(alpha float64) predictorMaker {
	return func() predict.Predictor { return predict.NewEWMA(alpha) }
}

// predict streams the scenario through a predictive System at unlimited
// capacity and without noise, with mk as every query's predictor, and
// reads the run back: per-query predictions and measured costs from the
// bin records, selected features from the MLRs mk handed out (read in
// OnBin, after the bin's refit), and the overhead split from the
// engine's own op counters. warmup bins are excluded from the error
// series (the model needs history before its errors are meaningful).
func (s scenario) predict(mk predictorMaker, warmup int) *predRun {
	r := &predRun{}
	var mlrs []*predict.MLR
	sys := loadshed.New(loadshed.Config{
		Scheme:     loadshed.Predictive,
		Capacity:   math.Inf(1),
		NoiseSigma: -1,
		Predictor: func() predict.Predictor {
			p := mk()
			if m, ok := p.(*predict.MLR); ok {
				mlrs = append(mlrs, m)
			}
			return p
		},
	}, s.qs())
	sys.Stream(s.src(), loadshed.SinkFuncs{
		Query: func(_ int, name string) {
			r.Queries = append(r.Queries, name)
			r.Err, r.Pred, r.Actual = append(r.Err, nil), append(r.Pred, nil), append(r.Actual, nil)
			r.Features = append(r.Features, map[int]int{})
		},
		Bin: func(b *loadshed.BinStats) {
			for i, p := range b.QueryPred {
				actual := b.QueryUsed[i]
				r.Pred[i] = append(r.Pred[i], p)
				r.Actual[i] = append(r.Actual[i], actual)
				if r.Bins >= warmup {
					r.Err[i] = append(r.Err[i], stats.RelErr(p, actual))
				}
			}
			for i, m := range mlrs {
				for _, f := range m.Selected() {
					r.Features[i][f]++
				}
			}
			r.Bins++
		},
	})
	snap, err := sys.Snapshot()
	if err != nil {
		panic(err) // no custom shedding, one predictor kind: always snapshottable
	}
	r.FeatureCycles = features.CostPerOp * float64(snap.GlobalExtOps)
	for _, q := range snap.Queries {
		r.FCBFCycles += predict.FCBFCostPerOp * float64(q.FCBFOps)
		r.MLRCycles += predict.FitCostPerOp * float64(q.FitOps)
	}
	return r
}

// acrossQueries applies f to each bin's errors across queries, with
// the bins' times in seconds.
func (r *predRun) acrossQueries(f func(errs []float64) float64) (xs, ys []float64) {
	if len(r.Err) == 0 {
		return nil, nil
	}
	errs := make([]float64, len(r.Err))
	for bin := range r.Err[0] {
		for q := range r.Err {
			errs[q] = r.Err[q][bin]
		}
		xs, ys = append(xs, float64(bin)/10), append(ys, f(errs))
	}
	return xs, ys
}

// meanErr returns the mean error across all queries and bins.
func (r *predRun) meanErr() float64 {
	var all []float64
	for _, es := range r.Err {
		all = append(all, es...)
	}
	return stats.Mean(all)
}

// topFeatures names the most frequently selected features of query qi.
func (r *predRun) topFeatures(qi, n int) string {
	type fc struct {
		f, c int
	}
	var fcs []fc
	for f, c := range r.Features[qi] {
		fcs = append(fcs, fc{f, c})
	}
	for i := 1; i < len(fcs); i++ {
		for j := i; j > 0 && (fcs[j].c > fcs[j-1].c || (fcs[j].c == fcs[j-1].c && fcs[j].f < fcs[j-1].f)); j-- {
			fcs[j], fcs[j-1] = fcs[j-1], fcs[j]
		}
	}
	if len(fcs) > n {
		fcs = fcs[:n]
	}
	out := ""
	for i, x := range fcs {
		if i > 0 {
			out += ", "
		}
		out += features.Name(x.f)
	}
	return out
}

// overBins is a per-bin series of a run, ten bins to the second.
func overBins(name string, bins []loadshed.BinStats, y func(b *loadshed.BinStats) float64) Series {
	s := Series{Name: name}
	for i := range bins {
		s.X, s.Y = append(s.X, float64(i)/10), append(s.Y, y(&bins[i]))
	}
	return s
}

// perSecond sums y over each second of a run's bins, or averages it
// when avg is set.
func perSecond(name string, bins []loadshed.BinStats, avg bool, y func(b *loadshed.BinStats) float64) Series {
	s := Series{Name: name}
	for i := 0; i < len(bins); i += 10 {
		var sum float64
		n := 0
		for j := i; j < i+10 && j < len(bins); j++ {
			sum += y(&bins[j])
			n++
		}
		if avg {
			sum /= float64(n)
		}
		s.X, s.Y = append(s.X, float64(i)/10), append(s.Y, sum)
	}
	return s
}

// indexed is ys as a series over their index (an interval number).
func indexed(name string, ys []float64) Series {
	s := Series{Name: name}
	for i, y := range ys {
		s.X, s.Y = append(s.X, float64(i)), append(s.Y, y)
	}
	return s
}

// stackedCPU is the per-bin CPU usage of Figures 4.4 and 6.12, stacked
// as overhead, then shedding, then queries, with the predicted demand
// and the capacity; names label the five series in that order.
func stackedCPU(bins []loadshed.BinStats, capacity float64, names [5]string) []Series {
	out := make([]Series, len(names))
	for j := range out {
		out[j].Name = names[j]
	}
	for i, b := range bins {
		x := float64(i) / 10
		for j, y := range [5]float64{b.Overhead, b.Overhead + b.Shed, b.Overhead + b.Shed + b.Used, b.Predicted, capacity} {
			out[j].X, out[j].Y = append(out[j].X, x), append(out[j].Y, y)
		}
	}
	return out
}
