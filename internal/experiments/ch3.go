package experiments

import (
	"maps"
	"slices"
	"time"

	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("fig2.2", "Average cost per second of the CoMo queries (CESCA-II)", fig22)
	register("fig3.1", "CPU usage of an unknown query under an anomaly vs packets/bytes/flows", fig31)
	register("fig3.3", "Scatter of CPU usage vs packets, bucketed by new 5-tuples (flows query)", fig33)
	register("fig3.4", "SLR vs MLR predictions over time (flows query)", fig34)
	register("fig3.5", "Prediction error vs cost as a function of history and FCBF threshold", fig35)
	register("fig3.6", "Prediction error by query vs history and FCBF threshold", fig36)
	register("fig3.7", "Prediction error over time (CESCA-I and CESCA-II)", fig37)
	register("fig3.8", "Prediction error over time (ABILENE and CENIC)", fig38)
	register("fig3.9", "EWMA vs SLR predictions (counter query)", fig39)
	register("fig3.10", "EWMA prediction error vs weight alpha", fig310)
	register("fig3.11", "EWMA and SLR prediction error over time (CESCA-II)", fig311)
	register("fig3.12", "MLR+FCBF maximum and 95th-percentile error over time (CESCA-II)", fig312)
	register("fig3.13-15", "EWMA / SLR / MLR predictions under a spoofed on/off DDoS (flows query)", fig31315)
	register("tab3.2", "Prediction error and selected features by query across traces", tab32)
	register("tab3.3", "EWMA, SLR and MLR+FCBF error statistics per query (CESCA-II)", tab33)
	register("tab3.4", "Prediction overhead breakdown", tab34)
}

// warmupBins excluded from error statistics: one history window.
const warmupBins = predict.DefaultHistory

// standard is src under the standard query set, the set-up of most
// Chapter 3 runs.
func standard(cfg Config, src func() trace.Source) scenario {
	return newScenario(cfg, 0, src, queries.StandardSet)
}

func fig22(cfg Config) (*Result, error) {
	dur := cfg.dur(10 * time.Second)
	// The reference run is lossless and noise-free: each query's measured
	// cycles are its cost, flushed every interval as the engine runs it.
	ref := newScenario(cfg, cfg.Seed, source(trace.CESCA2, cfg, dur), queries.FullSet).reference()
	cost := map[string]float64{}
	for _, b := range ref.Bins {
		for i, c := range b.QueryUsed {
			cost[ref.Queries[i]] += c
		}
	}
	sec := dur.Seconds()
	t := Table{
		ID: "fig2.2", Title: "average cost per second (cycles/s)",
		Columns: []string{"query", "cycles/s"},
	}
	fig := Figure{ID: "fig2.2", Title: "per-query cost", XLabel: "query index", YLabel: "cycles/s"}
	s := Series{Name: "cost"}
	for i, name := range slices.Sorted(maps.Keys(cost)) {
		t.Rows = append(t.Rows, []string{name, fmtF(cost[name]/sec, 0)})
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, cost[name]/sec)
	}
	fig.Series = []Series{s}
	return &Result{Tables: []Table{t}, Figures: []Figure{fig}}, nil
}

// replayFlows runs a fresh flows query at full rate over src, flushed
// every interval, and hands f each bin's batch with the cycles the
// query spent on it.
func replayFlows(cfg Config, src trace.Source, f func(bin int, b *pkt.Batch, cycles float64)) {
	q := queries.NewFlows(queries.Config{Seed: cfg.Seed})
	model := queries.DefaultCostModel()
	src.Reset()
	for bin := 0; ; bin++ {
		b, ok := src.NextBatch()
		if !ok {
			return
		}
		if bin%10 == 0 {
			q.Flush()
		}
		f(bin, &b, model.Cycles(q.Process(&b, 1)))
	}
}

func fig31(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	flood := trace.NewSYNFlood(dur/3, dur/3, 4*trace.CESCA1(cfg.Seed, dur, cfg.Scale).PacketsPerSec,
		pkt.IPv4(147, 83, 1, 1), 80)
	var cpu, pkts, bytes, flows Series
	cpu.Name, pkts.Name, bytes.Name, flows.Name = "cpu-cycles", "packets", "bytes", "5-tuple flows"
	replayFlows(cfg, source(trace.CESCA1, cfg, dur, flood)(), func(bin int, b *pkt.Batch, cycles float64) {
		exact := map[pkt.FlowKey]bool{}
		for i := range b.Pkts {
			exact[b.Pkts[i].FlowKey()] = true
		}
		x := float64(bin) / 10
		cpu.X, cpu.Y = append(cpu.X, x), append(cpu.Y, cycles)
		pkts.X, pkts.Y = append(pkts.X, x), append(pkts.Y, float64(b.Packets()))
		bytes.X, bytes.Y = append(bytes.X, x), append(bytes.Y, float64(b.Bytes()))
		flows.X, flows.Y = append(flows.X, x), append(flows.Y, float64(len(exact)))
	})
	return &Result{
		Figures: []Figure{{
			ID: "fig3.1", Title: "unknown-query CPU vs candidate features",
			XLabel: "time (s)", YLabel: "per-batch value",
			Series: []Series{cpu, pkts, bytes, flows},
		}},
		Notes: []string{"the flows series tracks the CPU series through the anomaly; packets and bytes do not"},
	}, nil
}

func fig33(cfg Config) (*Result, error) {
	type obs struct{ pkts, cost, newFlows float64 }
	var all []obs
	var seen map[pkt.FlowKey]bool
	replayFlows(cfg, source(trace.CESCA2, cfg, cfg.dur(30*time.Second))(), func(bin int, b *pkt.Batch, cycles float64) {
		if bin%10 == 0 {
			seen = map[pkt.FlowKey]bool{}
		}
		newFlows := 0
		for i := range b.Pkts {
			k := b.Pkts[i].FlowKey()
			if !seen[k] {
				seen[k] = true
				newFlows++
			}
		}
		all = append(all, obs{
			pkts:     float64(b.Packets()),
			cost:     cycles,
			newFlows: float64(newFlows),
		})
	})
	// Bucket by new-flow count like the figure's legend.
	var thresholds []float64
	{
		var nf []float64
		for _, o := range all {
			nf = append(nf, o.newFlows)
		}
		thresholds = []float64{stats.Percentile(nf, 25), stats.Percentile(nf, 50), stats.Percentile(nf, 75)}
	}
	buckets := make([]Series, 4)
	names := []string{"new5t<p25", "p25..p50", "p50..p75", ">=p75"}
	for i := range buckets {
		buckets[i].Name = names[i]
	}
	for _, o := range all {
		bi := 3
		switch {
		case o.newFlows < thresholds[0]:
			bi = 0
		case o.newFlows < thresholds[1]:
			bi = 1
		case o.newFlows < thresholds[2]:
			bi = 2
		}
		buckets[bi].X = append(buckets[bi].X, o.pkts)
		buckets[bi].Y = append(buckets[bi].Y, o.cost)
	}
	return &Result{Figures: []Figure{{
		ID: "fig3.3", Title: "CPU vs packets per batch, stratified by new 5-tuples",
		XLabel: "packets/batch", YLabel: "cpu cycles",
		Series: buckets,
	}}}, nil
}

// window is ys[start:start+n] as a series over time, ten bins to the
// second.
func window(name string, ys []float64, start, n int) Series {
	s := Series{Name: name}
	for i := start; i < start+n && i < len(ys); i++ {
		s.X = append(s.X, float64(i)/10)
		s.Y = append(s.Y, ys[i])
	}
	return s
}

// relErrs is the per-bin relative error of pred against actual.
func relErrs(pred, actual []float64) []float64 {
	out := make([]float64, len(pred))
	for i := range pred {
		out[i] = stats.RelErr(pred[i], actual[i])
	}
	return out
}

func fig34(cfg Config) (*Result, error) {
	s := newScenario(cfg, 0, source(trace.CESCA2, cfg, cfg.dur(20*time.Second)), flowsOnly)
	mlr := s.predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	slr := s.predict(mkSLR(), warmupBins)
	const n = 50 // 5 s, like the figure
	return &Result{Figures: []Figure{
		{
			ID: "fig3.4a", Title: "predictions over time (flows query)",
			XLabel: "time (s)", YLabel: "cpu cycles",
			Series: []Series{
				window("actual", mlr.Actual[0], warmupBins, n),
				window("mlr", mlr.Pred[0], warmupBins, n),
				window("slr", slr.Pred[0], warmupBins, n),
			},
		},
		{
			ID: "fig3.4b", Title: "relative error over time",
			XLabel: "time (s)", YLabel: "relative error",
			Series: []Series{
				window("mlr", relErrs(mlr.Pred[0], mlr.Actual[0]), warmupBins, n),
				window("slr", relErrs(slr.Pred[0], slr.Actual[0]), warmupBins, n),
			},
		},
	}}, nil
}

// mlrSweep runs the standard set on CESCA-II once per MLR history, with
// one history plus a second of warm-up, and once per FCBF threshold:
// the sweeps behind Figures 3.5 and 3.6. It returns each sweep's x
// values (history in seconds, threshold) with its runs.
func mlrSweep(cfg Config, histories []int, thresholds []float64) (hx []float64, byHist []*predRun, tx []float64, byThr []*predRun) {
	s := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(20*time.Second)))
	for _, n := range histories {
		hx = append(hx, float64(n)/10)
		byHist = append(byHist, s.predict(mkMLR(n, predict.DefaultThreshold), n+10))
	}
	for _, th := range thresholds {
		tx = append(tx, th)
		byThr = append(byThr, s.predict(mkMLR(predict.DefaultHistory, th), warmupBins))
	}
	return hx, byHist, tx, byThr
}

func fig35(cfg Config) (*Result, error) {
	histories := []int{10, 20, 40, 60, 100, 200}
	thresholds := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9}
	if cfg.Quick {
		histories = []int{10, 60, 200}
		thresholds = []float64{0, 0.6, 0.9}
	}
	hx, byHist, tx, byThr := mlrSweep(cfg, histories, thresholds)
	// Mean error and the FCBF+MLR cycles per bin, per run of a sweep.
	errCost := func(param string, xs []float64, runs []*predRun) []Series {
		e, c := Series{Name: "error(" + param + ")", X: xs}, Series{Name: "cost(" + param + ")", X: xs}
		for _, r := range runs {
			e.Y = append(e.Y, r.meanErr())
			c.Y = append(c.Y, (r.FCBFCycles+r.MLRCycles)/float64(r.Bins))
		}
		return []Series{e, c}
	}
	return &Result{Figures: []Figure{
		{ID: "fig3.5a", Title: "error and cost vs MLR history", XLabel: "history (s)", YLabel: "error / cycles-per-bin", Series: errCost("history", hx, byHist)},
		{ID: "fig3.5b", Title: "error and cost vs FCBF threshold", XLabel: "threshold", YLabel: "error / cycles-per-bin", Series: errCost("threshold", tx, byThr)},
	}}, nil
}

func fig36(cfg Config) (*Result, error) {
	hx, byHist, tx, byThr := mlrSweep(cfg, []int{10, 60, 200}, []float64{0, 0.6, 0.9})
	// One series per query, in name order, of its mean error per run.
	perQuery := func(xs []float64, runs []*predRun) []Series {
		byName := map[string]*Series{}
		for i, r := range runs {
			for qi, name := range r.Queries {
				if byName[name] == nil {
					byName[name] = &Series{Name: name}
				}
				s := byName[name]
				s.X, s.Y = append(s.X, xs[i]), append(s.Y, stats.Mean(r.Err[qi]))
			}
		}
		var out []Series
		for _, name := range slices.Sorted(maps.Keys(byName)) {
			out = append(out, *byName[name])
		}
		return out
	}
	return &Result{Figures: []Figure{
		{ID: "fig3.6a", Title: "per-query error vs history", XLabel: "history (s)", YLabel: "relative error", Series: perQuery(hx, byHist)},
		{ID: "fig3.6b", Title: "per-query error vs FCBF threshold", XLabel: "threshold", YLabel: "relative error", Series: perQuery(tx, byThr)},
	}}, nil
}

// errOverTime is the standard set's MLR+FCBF error over src, averaged
// and maximised over queries per bin.
func errOverTime(cfg Config, id, title string, src func() trace.Source) Figure {
	r := standard(cfg, src).predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	xs, avg := r.acrossQueries(stats.Mean)
	_, max := r.acrossQueries(stats.Max)
	return Figure{
		ID: id, Title: title, XLabel: "time (s)", YLabel: "relative error",
		Series: []Series{{Name: "average", X: xs, Y: avg}, {Name: "max", X: xs, Y: max}},
	}
}

func fig37(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	f1 := errOverTime(cfg, "fig3.7a", "prediction error over time (CESCA-I)", source(trace.CESCA1, cfg, dur))
	f2 := errOverTime(cfg, "fig3.7b", "prediction error over time (CESCA-II)", source(trace.CESCA2, cfg, dur))
	n1 := stats.Mean(f1.Series[0].Y)
	n2 := stats.Mean(f2.Series[0].Y)
	return &Result{
		Figures: []Figure{f1, f2},
		Notes: []string{
			"mean error CESCA-I: " + fmtPct(n1) + " (paper ~0.65%)",
			"mean error CESCA-II: " + fmtPct(n2) + " (paper ~1.2%)",
		},
	}, nil
}

func fig38(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	return &Result{Figures: []Figure{
		errOverTime(cfg, "fig3.8a", "prediction error over time (ABILENE)", source(trace.Abilene, cfg, dur)),
		errOverTime(cfg, "fig3.8b", "prediction error over time (CENIC)", source(trace.CENIC, cfg, dur)),
	}}, nil
}

func fig39(cfg Config) (*Result, error) {
	s := newScenario(cfg, 0, source(trace.CESCA2, cfg, cfg.dur(10*time.Second)), func(c queries.Config) []queries.Query {
		return []queries.Query{queries.NewCounter(c)}
	})
	ewma := s.predict(mkEWMA(predict.DefaultEWMAAlpha), 10)
	slr := s.predict(mkSLR(), 10)
	return &Result{Figures: []Figure{{
		ID: "fig3.9", Title: "EWMA vs SLR predictions (counter)",
		XLabel: "time (s)", YLabel: "cpu cycles",
		Series: []Series{window("actual", slr.Actual[0], 10, 50), window("slr", slr.Pred[0], 10, 50), window("ewma", ewma.Pred[0], 10, 50)},
	}}}, nil
}

func fig310(cfg Config) (*Result, error) {
	s := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(20*time.Second)))
	ser := Series{Name: "ewma error"}
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		ser.X = append(ser.X, alpha)
		ser.Y = append(ser.Y, s.predict(mkEWMA(alpha), 10).meanErr())
	}
	return &Result{Figures: []Figure{{
		ID: "fig3.10", Title: "EWMA error vs weight", XLabel: "alpha", YLabel: "relative error",
		Series: []Series{ser},
	}}}, nil
}

func fig311(cfg Config) (*Result, error) {
	s := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(30*time.Second)))
	xs1, avg1 := s.predict(mkEWMA(predict.DefaultEWMAAlpha), 10).acrossQueries(stats.Mean)
	xs2, avg2 := s.predict(mkSLR(), 10).acrossQueries(stats.Mean)
	return &Result{Figures: []Figure{{
		ID: "fig3.11", Title: "EWMA and SLR error over time (CESCA-II)",
		XLabel: "time (s)", YLabel: "average relative error",
		Series: []Series{{Name: "ewma", X: xs1, Y: avg1}, {Name: "slr", X: xs2, Y: avg2}},
	}}}, nil
}

func fig312(cfg Config) (*Result, error) {
	r := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(30*time.Second))).predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	// Per-bin max and 95th percentile across queries, then a rolling max
	// over 10 s windows as the figure does.
	xs, p95 := r.acrossQueries(func(errs []float64) float64 { return stats.Percentile(errs, 95) })
	_, binMax := r.acrossQueries(stats.Max)
	maxS := Series{Name: "max (10s windows)"}
	for lo := 0; lo < len(binMax); lo += 100 {
		hi := min(lo+100, len(binMax))
		maxS.X, maxS.Y = append(maxS.X, xs[hi-1]), append(maxS.Y, stats.Max(binMax[lo:hi]))
	}
	p95S := Series{Name: "95th percentile", X: xs, Y: p95}
	return &Result{Figures: []Figure{{
		ID: "fig3.12", Title: "MLR+FCBF max and 95th-percentile error",
		XLabel: "time (s)", YLabel: "relative error",
		Series: []Series{maxS, p95S},
	}}}, nil
}

func fig31315(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	pps := trace.CESCA2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	ddos := trace.NewOnOffDDoS(dur/3, dur/3, 3*pps, pkt.IPv4(147, 83, 1, 1))
	s := newScenario(cfg, 0, source(trace.CESCA2, cfg, dur, ddos), flowsOnly)

	var figs []Figure
	notes := []string{}
	for _, m := range []struct {
		id, name string
		mk       predictorMaker
	}{
		{"fig3.13", "ewma", mkEWMA(predict.DefaultEWMAAlpha)},
		{"fig3.14", "slr", mkSLR()},
		{"fig3.15", "mlr+fcbf", mkMLR(predict.DefaultHistory, predict.DefaultThreshold)},
	} {
		r := s.predict(m.mk, warmupBins)
		actual, pred := r.Actual[0], r.Pred[0]
		figs = append(figs, Figure{
			ID: m.id, Title: m.name + " prediction under on/off DDoS (flows)",
			XLabel: "time (s)", YLabel: "cpu cycles / error",
			Series: []Series{
				window("actual", actual, warmupBins, len(actual)),
				window("predicted", pred, warmupBins, len(actual)),
				window("error", relErrs(pred, actual), warmupBins, len(actual)),
			},
		})
		notes = append(notes, m.name+" mean error: "+fmtPct(r.meanErr()))
	}
	return &Result{Figures: figs, Notes: notes}, nil
}

func tab32(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	traces := []struct {
		name   string
		preset func(uint64, time.Duration, float64) trace.Config
	}{
		{"CESCA-I", trace.CESCA1},
		{"CESCA-II", trace.CESCA2},
		{"ABILENE", trace.Abilene},
		{"CENIC", trace.CENIC},
	}
	if cfg.Quick {
		traces = traces[:2]
	}
	t := Table{
		ID: "tab3.2", Title: "MLR+FCBF prediction error by query",
		Columns: []string{"trace", "query", "mean", "stdev", "selected features"},
	}
	for _, tr := range traces {
		s := standard(cfg, source(tr.preset, cfg, dur))
		r := s.predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
		for qi, name := range r.Queries {
			t.Rows = append(t.Rows, []string{
				tr.name, name,
				fmtF(stats.Mean(r.Err[qi]), 4),
				fmtF(stats.Stdev(r.Err[qi]), 4),
				r.topFeatures(qi, 2),
			})
		}
	}
	return &Result{Tables: []Table{t}}, nil
}

// tab33Methods are Table 3.3's predictors in column order.
var tab33Methods = []string{"ewma", "slr", "mlr"}

// tab33Runs runs the standard set on CESCA-II under each of
// tab33Methods.
func tab33Runs(cfg Config) map[string]*predRun {
	s := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(30*time.Second)))
	return map[string]*predRun{
		"ewma": s.predict(mkEWMA(predict.DefaultEWMAAlpha), 10),
		"slr":  s.predict(mkSLR(), 10),
		"mlr":  s.predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins),
	}
}

func tab33(cfg Config) (*Result, error) {
	runs := tab33Runs(cfg)
	t := Table{
		ID: "tab3.3", Title: "error statistics per query and method",
		Columns: []string{"query", "ewma mean", "ewma sd", "slr mean", "slr sd", "mlr mean", "mlr sd"},
	}
	for qi, name := range runs["mlr"].Queries {
		row := []string{name}
		for _, m := range tab33Methods {
			row = append(row, fmtF(stats.Mean(runs[m].Err[qi]), 4), fmtF(stats.Stdev(runs[m].Err[qi]), 4))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"expected shape: mlr < slr < ewma on average; slr worst on byte-driven queries"}}, nil
}

// overhead is Table 3.4: each phase of the prediction subsystem, and
// their sum, as a fraction of the total cycles (queries plus
// prediction).
type overhead struct {
	extraction, fcbf, mlr, total float64
}

func predictionOverhead(cfg Config) overhead {
	r := standard(cfg, source(trace.CESCA2, cfg, cfg.dur(30*time.Second))).predict(mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	var queryCycles float64
	for qi := range r.Actual {
		queryCycles += stats.Sum(r.Actual[qi])
	}
	predictCycles := r.FeatureCycles + r.FCBFCycles + r.MLRCycles
	total := queryCycles + predictCycles
	return overhead{r.FeatureCycles / total, r.FCBFCycles / total, r.MLRCycles / total, predictCycles / total}
}

func tab34(cfg Config) (*Result, error) {
	o := predictionOverhead(cfg)
	t := Table{
		ID: "tab3.4", Title: "prediction overhead breakdown (fraction of total cycles)",
		Columns: []string{"phase", "overhead"},
		Rows: [][]string{
			{"feature extraction", fmtPct(o.extraction)},
			{"fcbf", fmtPct(o.fcbf)},
			{"mlr", fmtPct(o.mlr)},
			{"total", fmtPct(o.total)},
		},
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"paper: feature extraction 9.07%, fcbf 1.70%, mlr 0.20%, total 10.97%"}}, nil
}
