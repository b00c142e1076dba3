package experiments

import (
	"math"
	"time"

	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// Trace builders for the dataset presets at experiment scale.

func srcCESCA1(cfg Config, dur time.Duration, anomalies ...trace.Anomaly) *trace.Generator {
	c := trace.CESCA1(cfg.Seed, dur, cfg.Scale)
	c.Anomalies = anomalies
	return trace.NewGenerator(c)
}

func srcCESCA2(cfg Config, dur time.Duration, anomalies ...trace.Anomaly) *trace.Generator {
	c := trace.CESCA2(cfg.Seed, dur, cfg.Scale)
	c.Anomalies = anomalies
	return trace.NewGenerator(c)
}

func srcAbilene(cfg Config, dur time.Duration) *trace.Generator {
	return trace.NewGenerator(trace.Abilene(cfg.Seed, dur, cfg.Scale))
}

func srcCENIC(cfg Config, dur time.Duration) *trace.Generator {
	return trace.NewGenerator(trace.CENIC(cfg.Seed, dur, cfg.Scale))
}

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

// runPredictor streams src through a predictive System at unlimited
// capacity and without noise, with mk as every query's predictor, and
// reads the run back: per-query predictions and measured costs from the
// bin records, selected features from the MLRs mk handed out (read in
// OnBin, after the bin's refit), and the overhead split from the
// engine's own op counters. warmup bins are excluded from the error
// series (the model needs history before its errors are meaningful).
func runPredictor(src trace.Source, qs []queries.Query, mk predictorMaker, warmup int) *predRun {
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
	}, qs)
	sys.Stream(src, loadshed.SinkFuncs{
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

// avgErrPerBin averages the per-query error series bin-wise.
func (r *predRun) avgErrPerBin() (xs, avg, max []float64) {
	if len(r.Err) == 0 {
		return nil, nil, nil
	}
	n := len(r.Err[0])
	for bin := 0; bin < n; bin++ {
		var sum, mx float64
		for q := range r.Err {
			e := r.Err[q][bin]
			sum += e
			if e > mx {
				mx = e
			}
		}
		xs = append(xs, float64(bin)/10) // seconds
		avg = append(avg, sum/float64(len(r.Err)))
		max = append(max, mx)
	}
	return xs, avg, max
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

// meanAccuracy summarizes Accuracies output: the average accuracy over
// queries and intervals, plus the per-query means.
func meanAccuracy(accs map[string][]float64) (avg float64, min float64, byQuery map[string]float64) {
	byQuery = map[string]float64{}
	min = 1
	n := 0
	for q, as := range accs {
		m := stats.Mean(as)
		byQuery[q] = m
		avg += m
		if m < min {
			min = m
		}
		n++
	}
	if n > 0 {
		avg /= float64(n)
	}
	return avg, min, byQuery
}
