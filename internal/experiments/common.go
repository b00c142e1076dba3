package experiments

import (
	"time"

	"repro/internal/features"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/trace"
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

// predRun is a standalone prediction experiment: queries run at full
// rate (no shedding, no measurement noise — §3.3 isolates the predictor
// from noise sources) while a predictor per query estimates each
// batch's cost from its features before it runs.
type predRun struct {
	Queries []string
	// Err[q][bin] is the relative prediction error after warmup.
	Err [][]float64
	// Pred and Actual hold the raw per-bin series.
	Pred   [][]float64
	Actual [][]float64
	// Features[q][f] counts how often feature f was selected (MLR only).
	Features []map[int]int
	// PredictCycles estimates the cost of running the prediction itself
	// (feature extraction + selection + fit), in cost-model cycles.
	PredictCycles float64
	// FeatureCycles / FCBFCycles / MLRCycles break PredictCycles down.
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

// Cost coefficients matching the system package's prediction-overhead
// accounting (Table 3.4).
const (
	expFeCostPerOp   = 25.0
	expFCBFCostPerOp = 4.0
	expMLRCostPerOp  = 6.0
)

// runPrediction drives the standalone prediction loop. warmup bins are
// excluded from the error series (the model needs history before its
// errors are meaningful).
func runPrediction(src trace.Source, qs []queries.Query, mk predictorMaker, warmup int) *predRun {
	src.Reset()
	model := queries.DefaultCostModel()
	ext := features.NewExtractor(0xfe)
	ext.StartInterval()

	r := &predRun{}
	preds := make([]predict.Predictor, len(qs))
	for i, q := range qs {
		q.Reset()
		preds[i] = mk()
		r.Queries = append(r.Queries, q.Name())
		r.Err = append(r.Err, nil)
		r.Pred = append(r.Pred, nil)
		r.Actual = append(r.Actual, nil)
		r.Features = append(r.Features, map[int]int{})
	}

	interval := qs[0].Interval()
	binsPerInterval := int(interval / src.TimeBin())
	if binsPerInterval < 1 {
		binsPerInterval = 1
	}

	bin := 0
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		if bin > 0 && bin%binsPerInterval == 0 {
			for _, q := range qs {
				q.Flush()
			}
			ext.StartInterval()
		}
		opsBefore := ext.Ops
		fv := ext.Extract(&b)
		r.FeatureCycles += expFeCostPerOp * float64(ext.Ops-opsBefore)

		for i, q := range qs {
			var fcbf, fit int64
			mlr, isMLR := preds[i].(*predict.MLR)
			if isMLR {
				fcbf, fit = mlr.FCBFOps, mlr.FitOps
			}
			p := preds[i].Predict(fv)
			if isMLR {
				r.FCBFCycles += expFCBFCostPerOp * float64(mlr.FCBFOps-fcbf)
				r.MLRCycles += expMLRCostPerOp * float64(mlr.FitOps-fit)
				for _, f := range mlr.Selected() {
					r.Features[i][f]++
				}
			}
			actual := model.Cycles(q.Process(&b, 1))
			preds[i].Observe(fv, actual)
			r.Pred[i] = append(r.Pred[i], p)
			r.Actual[i] = append(r.Actual[i], actual)
			if bin >= warmup {
				r.Err[i] = append(r.Err[i], stats.RelErr(p, actual))
			}
		}
		bin++
	}
	r.Bins = bin
	r.PredictCycles = r.FeatureCycles + r.FCBFCycles + r.MLRCycles
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

// rateSampler applies a query's preferred sampling mechanism at a fixed
// rate, used by experiments that sweep sampling rates directly.
type rateSampler struct {
	ps *sampling.PacketSampler
	fs *sampling.FlowSampler
}

func newRateSampler(seed uint64) *rateSampler {
	return &rateSampler{
		ps: sampling.NewPacketSampler(seed),
		fs: sampling.NewFlowSampler(seed + 1),
	}
}

func (r *rateSampler) startInterval() { r.fs.StartInterval() }

func (r *rateSampler) sample(q queries.Query, pkts []pkt.Packet, rate float64) []pkt.Packet {
	if q.Method() == sampling.Flow {
		return r.fs.Sample(pkts, rate)
	}
	return r.ps.Sample(pkts, rate)
}
