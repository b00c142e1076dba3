package experiments

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
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

func fig22(cfg Config) (*Result, error) {
	dur := cfg.dur(10 * time.Second)
	// The reference run is lossless and noise-free: each query's measured
	// cycles are its cost, flushed every interval as the engine runs it.
	ref := loadshed.Reference(srcCESCA2(cfg, dur), queries.FullSet(queries.Config{Seed: cfg.Seed}), cfg.Seed)
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
	for i, name := range sortedKeys(cost) {
		t.Rows = append(t.Rows, []string{name, fmtF(cost[name]/sec, 0)})
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, cost[name]/sec)
	}
	fig.Series = []Series{s}
	return &Result{Tables: []Table{t}, Figures: []Figure{fig}}, nil
}

func fig31(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	flood := trace.NewSYNFlood(dur/3, dur/3, 4*trace.CESCA1(cfg.Seed, dur, cfg.Scale).PacketsPerSec,
		pkt.IPv4(147, 83, 1, 1), 80)
	src := srcCESCA1(cfg, dur, flood)
	q := queries.NewFlows(queries.Config{Seed: cfg.Seed})
	model := queries.DefaultCostModel()

	var cpu, pkts, bytes, flows Series
	cpu.Name, pkts.Name, bytes.Name, flows.Name = "cpu-cycles", "packets", "bytes", "5-tuple flows"
	bin := 0
	src.Reset()
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		if bin%10 == 0 {
			q.Flush()
		}
		exact := map[pkt.FlowKey]bool{}
		for i := range b.Pkts {
			exact[b.Pkts[i].FlowKey()] = true
		}
		x := float64(bin) / 10
		cpu.X, cpu.Y = append(cpu.X, x), append(cpu.Y, model.Cycles(q.Process(&b, 1)))
		pkts.X, pkts.Y = append(pkts.X, x), append(pkts.Y, float64(b.Packets()))
		bytes.X, bytes.Y = append(bytes.X, x), append(bytes.Y, float64(b.Bytes()))
		flows.X, flows.Y = append(flows.X, x), append(flows.Y, float64(len(exact)))
		bin++
	}
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
	dur := cfg.dur(30 * time.Second)
	src := srcCESCA2(cfg, dur)
	q := queries.NewFlows(queries.Config{Seed: cfg.Seed})
	model := queries.DefaultCostModel()
	type obs struct{ pkts, cost, newFlows float64 }
	var all []obs
	seen := map[pkt.FlowKey]bool{}
	bin := 0
	src.Reset()
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		if bin%10 == 0 {
			q.Flush()
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
			cost:     model.Cycles(q.Process(&b, 1)),
			newFlows: float64(newFlows),
		})
		bin++
	}
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

func fig34(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	qs := []queries.Query{queries.NewFlows(queries.Config{Seed: cfg.Seed})}
	mlr := runPredictor(srcCESCA2(cfg, dur), qs, mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	qs2 := []queries.Query{queries.NewFlows(queries.Config{Seed: cfg.Seed})}
	slr := runPredictor(srcCESCA2(cfg, dur), qs2, mkSLR(), warmupBins)

	window := 50 // 5 s, like the figure
	start := warmupBins
	mk := func(name string, ys []float64) Series {
		s := Series{Name: name}
		for i := start; i < start+window && i < len(ys); i++ {
			s.X = append(s.X, float64(i)/10)
			s.Y = append(s.Y, ys[i])
		}
		return s
	}
	return &Result{Figures: []Figure{
		{
			ID: "fig3.4a", Title: "predictions over time (flows query)",
			XLabel: "time (s)", YLabel: "cpu cycles",
			Series: []Series{mk("actual", mlr.Actual[0]), mk("mlr", mlr.Pred[0]), mk("slr", slr.Pred[0])},
		},
		{
			ID: "fig3.4b", Title: "relative error over time",
			XLabel: "time (s)", YLabel: "relative error",
			Series: []Series{
				mkErrSeries("mlr", mlr.Pred[0], mlr.Actual[0], start, window),
				mkErrSeries("slr", slr.Pred[0], slr.Actual[0], start, window),
			},
		},
	}}, nil
}

func mkErrSeries(name string, pred, actual []float64, start, window int) Series {
	s := Series{Name: name}
	for i := start; i < start+window && i < len(pred); i++ {
		s.X = append(s.X, float64(i)/10)
		s.Y = append(s.Y, stats.RelErr(pred[i], actual[i]))
	}
	return s
}

func fig35(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	histories := []int{10, 20, 40, 60, 100, 200}
	thresholds := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9}
	if cfg.Quick {
		histories = []int{10, 60, 200}
		thresholds = []float64{0, 0.6, 0.9}
	}
	mkQs := func() []queries.Query { return queries.StandardSet(queries.Config{Seed: cfg.Seed}) }

	var hist Series
	histCost := Series{Name: "cost(history)"}
	hist.Name = "error(history)"
	for _, n := range histories {
		r := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkMLR(n, predict.DefaultThreshold), n+10)
		hist.X = append(hist.X, float64(n)/10) // seconds of history
		hist.Y = append(hist.Y, r.meanErr())
		histCost.X = append(histCost.X, float64(n)/10)
		histCost.Y = append(histCost.Y, (r.FCBFCycles+r.MLRCycles)/float64(r.Bins))
	}
	var thr Series
	thrCost := Series{Name: "cost(threshold)"}
	thr.Name = "error(threshold)"
	for _, th := range thresholds {
		r := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkMLR(predict.DefaultHistory, th), warmupBins)
		thr.X = append(thr.X, th)
		thr.Y = append(thr.Y, r.meanErr())
		thrCost.X = append(thrCost.X, th)
		thrCost.Y = append(thrCost.Y, (r.FCBFCycles+r.MLRCycles)/float64(r.Bins))
	}
	return &Result{Figures: []Figure{
		{ID: "fig3.5a", Title: "error and cost vs MLR history", XLabel: "history (s)", YLabel: "error / cycles-per-bin", Series: []Series{hist, histCost}},
		{ID: "fig3.5b", Title: "error and cost vs FCBF threshold", XLabel: "threshold", YLabel: "error / cycles-per-bin", Series: []Series{thr, thrCost}},
	}}, nil
}

func fig36(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	histories := []int{10, 60, 200}
	thresholds := []float64{0, 0.6, 0.9}
	mkQs := func() []queries.Query { return queries.StandardSet(queries.Config{Seed: cfg.Seed}) }

	var histSeries, thrSeries []Series
	perQuery := map[string]*Series{}
	for _, n := range histories {
		r := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkMLR(n, predict.DefaultThreshold), n+10)
		for qi, name := range r.Queries {
			s, ok := perQuery[name]
			if !ok {
				s = &Series{Name: name}
				perQuery[name] = s
			}
			s.X = append(s.X, float64(n)/10)
			s.Y = append(s.Y, stats.Mean(r.Err[qi]))
		}
	}
	for _, name := range sortedKeysSeries(perQuery) {
		histSeries = append(histSeries, *perQuery[name])
	}
	perQuery = map[string]*Series{}
	for _, th := range thresholds {
		r := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkMLR(predict.DefaultHistory, th), warmupBins)
		for qi, name := range r.Queries {
			s, ok := perQuery[name]
			if !ok {
				s = &Series{Name: name}
				perQuery[name] = s
			}
			s.X = append(s.X, th)
			s.Y = append(s.Y, stats.Mean(r.Err[qi]))
		}
	}
	for _, name := range sortedKeysSeries(perQuery) {
		thrSeries = append(thrSeries, *perQuery[name])
	}
	return &Result{Figures: []Figure{
		{ID: "fig3.6a", Title: "per-query error vs history", XLabel: "history (s)", YLabel: "relative error", Series: histSeries},
		{ID: "fig3.6b", Title: "per-query error vs FCBF threshold", XLabel: "threshold", YLabel: "relative error", Series: thrSeries},
	}}, nil
}

func sortedKeysSeries(m map[string]*Series) []string {
	tmp := map[string]float64{}
	for k := range m {
		tmp[k] = 0
	}
	return sortedKeys(tmp)
}

func errOverTime(cfg Config, src trace.Source) Figure {
	qs := queries.StandardSet(queries.Config{Seed: cfg.Seed})
	r := runPredictor(src, qs, mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	xs, avg, max := r.avgErrPerBin()
	return Figure{
		XLabel: "time (s)", YLabel: "relative error",
		Series: []Series{{Name: "average", X: xs, Y: avg}, {Name: "max", X: xs, Y: max}},
	}
}

func fig37(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	f1 := errOverTime(cfg, srcCESCA1(cfg, dur))
	f1.ID, f1.Title = "fig3.7a", "prediction error over time (CESCA-I)"
	f2 := errOverTime(cfg, srcCESCA2(cfg, dur))
	f2.ID, f2.Title = "fig3.7b", "prediction error over time (CESCA-II)"
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
	f1 := errOverTime(cfg, srcAbilene(cfg, dur))
	f1.ID, f1.Title = "fig3.8a", "prediction error over time (ABILENE)"
	f2 := errOverTime(cfg, srcCENIC(cfg, dur))
	f2.ID, f2.Title = "fig3.8b", "prediction error over time (CENIC)"
	return &Result{Figures: []Figure{f1, f2}}, nil
}

func fig39(cfg Config) (*Result, error) {
	dur := cfg.dur(10 * time.Second)
	mkQ := func() []queries.Query { return []queries.Query{queries.NewCounter(queries.Config{Seed: cfg.Seed})} }
	ewma := runPredictor(srcCESCA2(cfg, dur), mkQ(), mkEWMA(predict.DefaultEWMAAlpha), 10)
	slr := runPredictor(srcCESCA2(cfg, dur), mkQ(), mkSLR(), 10)
	window, start := 50, 10
	mk := func(name string, ys []float64) Series {
		s := Series{Name: name}
		for i := start; i < start+window && i < len(ys); i++ {
			s.X = append(s.X, float64(i)/10)
			s.Y = append(s.Y, ys[i])
		}
		return s
	}
	return &Result{Figures: []Figure{{
		ID: "fig3.9", Title: "EWMA vs SLR predictions (counter)",
		XLabel: "time (s)", YLabel: "cpu cycles",
		Series: []Series{mk("actual", slr.Actual[0]), mk("slr", slr.Pred[0]), mk("ewma", ewma.Pred[0])},
	}}}, nil
}

func fig310(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	s := Series{Name: "ewma error"}
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		r := runPredictor(srcCESCA2(cfg, dur), queries.StandardSet(queries.Config{Seed: cfg.Seed}), mkEWMA(alpha), 10)
		s.X = append(s.X, alpha)
		s.Y = append(s.Y, r.meanErr())
	}
	return &Result{Figures: []Figure{{
		ID: "fig3.10", Title: "EWMA error vs weight", XLabel: "alpha", YLabel: "relative error",
		Series: []Series{s},
	}}}, nil
}

func fig311(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	mkQs := func() []queries.Query { return queries.StandardSet(queries.Config{Seed: cfg.Seed}) }
	ew := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkEWMA(predict.DefaultEWMAAlpha), 10)
	sl := runPredictor(srcCESCA2(cfg, dur), mkQs(), mkSLR(), 10)
	xs1, avg1, _ := ew.avgErrPerBin()
	xs2, avg2, _ := sl.avgErrPerBin()
	return &Result{Figures: []Figure{{
		ID: "fig3.11", Title: "EWMA and SLR error over time (CESCA-II)",
		XLabel: "time (s)", YLabel: "average relative error",
		Series: []Series{{Name: "ewma", X: xs1, Y: avg1}, {Name: "slr", X: xs2, Y: avg2}},
	}}}, nil
}

func fig312(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	r := runPredictor(srcCESCA2(cfg, dur), queries.StandardSet(queries.Config{Seed: cfg.Seed}),
		mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	xs, _, _ := r.avgErrPerBin()
	// Per-bin max and 95th percentile across queries, then a rolling max
	// over 10 s windows as the figure does.
	n := len(xs)
	maxS := Series{Name: "max (10s windows)"}
	p95S := Series{Name: "95th percentile"}
	var window []float64
	for bin := 0; bin < n; bin++ {
		var binVals []float64
		for q := range r.Err {
			binVals = append(binVals, r.Err[q][bin])
		}
		window = append(window, stats.Max(binVals))
		p95S.X = append(p95S.X, xs[bin])
		p95S.Y = append(p95S.Y, stats.Percentile(binVals, 95))
		if len(window) == 100 || bin == n-1 {
			maxS.X = append(maxS.X, xs[bin])
			maxS.Y = append(maxS.Y, stats.Max(window))
			window = window[:0]
		}
	}
	return &Result{Figures: []Figure{{
		ID: "fig3.12", Title: "MLR+FCBF max and 95th-percentile error",
		XLabel: "time (s)", YLabel: "relative error",
		Series: []Series{maxS, p95S},
	}}}, nil
}

func fig31315(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	target := pkt.IPv4(147, 83, 1, 1)
	pps := trace.CESCA2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	mkSrc := func() trace.Source {
		return srcCESCA2(cfg, dur, trace.NewOnOffDDoS(dur/3, dur/3, 3*pps, target))
	}
	mkQ := func() []queries.Query { return []queries.Query{queries.NewFlows(queries.Config{Seed: cfg.Seed})} }

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
		r := runPredictor(mkSrc(), mkQ(), m.mk, warmupBins)
		actual := Series{Name: "actual"}
		predS := Series{Name: "predicted"}
		errS := Series{Name: "error"}
		for i := warmupBins; i < len(r.Actual[0]); i++ {
			x := float64(i) / 10
			actual.X, actual.Y = append(actual.X, x), append(actual.Y, r.Actual[0][i])
			predS.X, predS.Y = append(predS.X, x), append(predS.Y, r.Pred[0][i])
			errS.X, errS.Y = append(errS.X, x), append(errS.Y, stats.RelErr(r.Pred[0][i], r.Actual[0][i]))
		}
		figs = append(figs, Figure{
			ID: m.id, Title: m.name + " prediction under on/off DDoS (flows)",
			XLabel: "time (s)", YLabel: "cpu cycles / error",
			Series: []Series{actual, predS, errS},
		})
		notes = append(notes, m.name+" mean error: "+fmtPct(r.meanErr()))
	}
	return &Result{Figures: figs, Notes: notes}, nil
}

func tab32(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	traces := []struct {
		name string
		mk   func() trace.Source
	}{
		{"CESCA-I", func() trace.Source { return srcCESCA1(cfg, dur) }},
		{"CESCA-II", func() trace.Source { return srcCESCA2(cfg, dur) }},
		{"ABILENE", func() trace.Source { return srcAbilene(cfg, dur) }},
		{"CENIC", func() trace.Source { return srcCENIC(cfg, dur) }},
	}
	if cfg.Quick {
		traces = traces[:2]
	}
	t := Table{
		ID: "tab3.2", Title: "MLR+FCBF prediction error by query",
		Columns: []string{"trace", "query", "mean", "stdev", "selected features"},
	}
	for _, tr := range traces {
		r := runPredictor(tr.mk(), queries.StandardSet(queries.Config{Seed: cfg.Seed}),
			mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
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

func tab33(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	mkQs := func() []queries.Query { return queries.StandardSet(queries.Config{Seed: cfg.Seed}) }
	runs := map[string]*predRun{
		"ewma": runPredictor(srcCESCA2(cfg, dur), mkQs(), mkEWMA(predict.DefaultEWMAAlpha), 10),
		"slr":  runPredictor(srcCESCA2(cfg, dur), mkQs(), mkSLR(), 10),
		"mlr":  runPredictor(srcCESCA2(cfg, dur), mkQs(), mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins),
	}
	t := Table{
		ID: "tab3.3", Title: "error statistics per query and method",
		Columns: []string{"query", "ewma mean", "ewma sd", "slr mean", "slr sd", "mlr mean", "mlr sd"},
	}
	for qi, name := range runs["mlr"].Queries {
		row := []string{name}
		for _, m := range []string{"ewma", "slr", "mlr"} {
			row = append(row, fmtF(stats.Mean(runs[m].Err[qi]), 4), fmtF(stats.Stdev(runs[m].Err[qi]), 4))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"expected shape: mlr < slr < ewma on average; slr worst on byte-driven queries"}}, nil
}

func tab34(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	r := runPredictor(srcCESCA2(cfg, dur), queries.StandardSet(queries.Config{Seed: cfg.Seed}),
		mkMLR(predict.DefaultHistory, predict.DefaultThreshold), warmupBins)
	// Total processing cost: queries plus the prediction subsystem.
	var queryCycles float64
	for qi := range r.Actual {
		queryCycles += stats.Sum(r.Actual[qi])
	}
	predictCycles := r.FeatureCycles + r.FCBFCycles + r.MLRCycles
	total := queryCycles + predictCycles
	t := Table{
		ID: "tab3.4", Title: "prediction overhead breakdown (fraction of total cycles)",
		Columns: []string{"phase", "overhead"},
		Rows: [][]string{
			{"feature extraction", fmtPct(r.FeatureCycles / total)},
			{"fcbf", fmtPct(r.FCBFCycles / total)},
			{"mlr", fmtPct(r.MLRCycles / total)},
			{"total", fmtPct(predictCycles / total)},
		},
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"paper: feature extraction 9.07%, fcbf 1.70%, mlr 0.20%, total 10.97%"}}, nil
}
