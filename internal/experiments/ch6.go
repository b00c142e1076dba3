package experiments

import (
	"fmt"
	"time"

	"repro/internal/custom"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

func init() {
	register("fig6.1-2", "p2p-detector cost and accuracy under packet / flow / custom shedding", fig612)
	register("fig6.3", "Actual vs expected consumption of the custom-shed p2p-detector", fig63)
	register("fig6.4", "Accuracy vs sampling rate (high-watermark, top-k, p2p-detector)", fig64)
	register("fig6.5", "Average and minimum accuracy vs overload with and without custom shedding", fig65)
	register("fig6.6-7", "Timeline: eq_srates without custom shedding vs mmfs_pkt with it", fig667)
	register("fig6.8", "System performance under a massive spoofed DDoS", fig68)
	register("fig6.9", "System behaviour under new query arrivals", fig69)
	register("fig6.10", "Selfish p2p-detector clones arriving periodically", fig610)
	register("fig6.11", "Buggy p2p-detector clones arriving periodically", fig611)
	register("fig6.12-14", "Online execution: CPU, buffer, accuracy and shedding rate over time", fig61214)
	register("tab6.2", "Accuracy by query for the online execution", tab62)
}

// ch6Qs is the Chapter 6 validation set: p2p-detector plus companions.
func ch6Qs(seed uint64) []queries.Query {
	return []queries.Query{
		queries.NewP2PDetector(queries.Config{Seed: seed}),
		queries.NewCounter(queries.Config{Seed: seed}),
		queries.NewFlows(queries.Config{Seed: seed}),
		queries.NewHighWatermark(queries.Config{Seed: seed}),
		queries.NewTopK(queries.Config{Seed: seed}, 0),
	}
}

func ch6Src(cfg Config, dur time.Duration, anomalies ...trace.Anomaly) *trace.Generator {
	c := trace.UPC2(cfg.Seed, dur, cfg.Scale)
	c.P2PFrac = 0.15
	c.Anomalies = anomalies
	return trace.NewGenerator(c)
}

func fig612(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	type variant struct {
		name   string
		mk     func() []queries.Query
		custom bool
	}
	base := func(method sampling.Method) func() []queries.Query {
		return func() []queries.Query {
			qs := ch6Qs(cfg.Seed)
			if method != sampling.Custom {
				qs[0] = queries.WithMethod(qs[0], method)
			}
			return qs
		}
	}
	variants := []variant{
		{"packet-sampling", base(sampling.Packet), false},
		{"flow-sampling", base(sampling.Flow), false},
		{"custom", base(sampling.Custom), true},
	}
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), ch6Qs(cfg.Seed), cfg.Seed+60, 2)
	ref := loadshed.Reference(ch6Src(cfg, dur), ch6Qs(cfg.Seed), cfg.Seed+60)

	costT := Table{
		ID: "fig6.1", Title: "p2p-detector mean prediction and usage per bin",
		Columns: []string{"method", "mean predicted", "mean used", "mean rate"},
	}
	accT := Table{
		ID: "fig6.2", Title: "p2p-detector accuracy error per method",
		Columns: []string{"method", "mean error"},
	}
	for _, v := range variants {
		res := loadshed.New(loadshed.Config{
			Scheme: loadshed.Predictive, Capacity: capacity2x,
			Seed: cfg.Seed + 61, Strategy: sched.MMFSPkt{},
			CustomShedding: v.custom,
		}, v.mk()).Run(ch6Src(cfg, dur))
		var pred, used, rate float64
		for _, b := range res.Bins {
			pred += b.QueryPred[0]
			used += b.QueryUsed[0]
			rate += b.Rates[0]
		}
		n := float64(len(res.Bins))
		costT.Rows = append(costT.Rows, []string{
			v.name, fmtF(pred/n, 0), fmtF(used/n, 0), fmtF(rate/n, 2),
		})
		errs := loadshed.Errors(ch6Qs(cfg.Seed), res, ref)["p2p-detector"]
		accT.Rows = append(accT.Rows, []string{v.name, fmtPct(stats.Mean(errs))})
	}
	return &Result{Tables: []Table{costT, accT}, Notes: []string{
		"paper shape: custom shedding error well below packet and flow sampling at equal budget",
	}}, nil
}

func fig63(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), ch6Qs(cfg.Seed), cfg.Seed+62, 2)
	sys := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: capacity2x,
		Seed: cfg.Seed + 63, Strategy: sched.MMFSPkt{}, CustomShedding: true,
	}, ch6Qs(cfg.Seed))
	expected := Series{Name: "expected"}
	actual := Series{Name: "actual"}
	corr := Series{Name: "correction factor"}
	// The audit state is read after every bin; nothing else of the run
	// is kept.
	bin := 0
	sys.Stream(ch6Src(cfg, dur), loadshed.SinkFuncs{Bin: func(*loadshed.BinStats) {
		for _, st := range sys.CustomStates() {
			x := float64(bin) / 10
			expected.X, expected.Y = append(expected.X, x), append(expected.Y, st.LastExpected)
			actual.X, actual.Y = append(actual.X, x), append(actual.Y, st.LastActual)
			corr.X, corr.Y = append(corr.X, x), append(corr.Y, st.Corr())
		}
		bin++
	}})
	return &Result{Figures: []Figure{{
		ID: "fig6.3", Title: "actual vs expected consumption (custom p2p-detector)",
		XLabel: "time (s)", YLabel: "cycles / ratio",
		Series: []Series{expected, actual, corr},
	}}}, nil
}

func fig64(cfg Config) (*Result, error) {
	dur := cfg.dur(10 * time.Second)
	rates := []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
	if cfg.Quick {
		rates = []float64{0.05, 0.3, 0.7, 1.0}
	}
	fig := Figure{ID: "fig6.4", Title: "accuracy vs packet sampling rate", XLabel: "sampling rate", YLabel: "accuracy"}
	for _, name := range []string{"high-watermark", "top-k", "p2p-detector"} {
		s := Series{Name: name}
		for _, rate := range rates {
			s.X = append(s.X, rate)
			s.Y = append(s.Y, stats.Clamp(1-sampledError(cfg, dur, name, rate), 0, 1))
		}
		fig.Series = append(fig.Series, s)
	}
	return &Result{Figures: []Figure{fig}, Notes: []string{
		"paper shape: p2p-detector degrades ~linearly with the rate; high-watermark is robust",
	}}, nil
}

func fig65(cfg Config) (*Result, error) {
	dur := cfg.dur(15 * time.Second)
	grid := kGrid(cfg.Quick)
	mkQs := func() []queries.Query { return ch6Qs(cfg.Seed) }
	demand := loadshed.MeasureCapacity(ch6Src(cfg, dur), mkQs(), cfg.Seed+64)
	ref := loadshed.Reference(ch6Src(cfg, dur), mkQs(), cfg.Seed+64)

	avgFig := Figure{ID: "fig6.5a", Title: "average accuracy vs K", XLabel: "K", YLabel: "accuracy"}
	minFig := Figure{ID: "fig6.5b", Title: "minimum accuracy vs K", XLabel: "K", YLabel: "accuracy"}
	for _, withCustom := range []bool{false, true} {
		name := "sampling-only"
		if withCustom {
			name = "with-custom"
		}
		avgS, minS := Series{Name: name}, Series{Name: name}
		for _, k := range grid {
			res := loadshed.New(loadshed.Config{
				Scheme: loadshed.Predictive, Capacity: demand * (1 - k),
				Seed: cfg.Seed + 65, Strategy: sched.MMFSPkt{},
				CustomShedding: withCustom,
			}, mkQs()).Run(ch6Src(cfg, dur))
			accs := loadshed.Accuracies(mkQs(), res, ref, 10)
			avg, min, _ := meanAccuracy(accs)
			avgS.X, avgS.Y = append(avgS.X, k), append(avgS.Y, avg)
			minS.X, minS.Y = append(minS.X, k), append(minS.Y, min)
		}
		avgFig.Series = append(avgFig.Series, avgS)
		minFig.Series = append(minFig.Series, minS)
	}
	return &Result{Figures: []Figure{avgFig, minFig}}, nil
}

// timelineFigure summarizes one run as the Chapter 6 timeline plots do.
func timelineFigure(id, title string, res *loadshed.RunResult, accs map[string][]float64) Figure {
	rate := Series{Name: "mean sampling rate"}
	drops := Series{Name: "drops/s"}
	for i := 0; i < len(res.Bins); i += 10 {
		var r, d float64
		n := 0
		for j := i; j < i+10 && j < len(res.Bins); j++ {
			r += stats.Mean(res.Bins[j].Rates)
			d += float64(res.Bins[j].DropPkts)
			n++
		}
		rate.X, rate.Y = append(rate.X, float64(i)/10), append(rate.Y, r/float64(n))
		drops.X, drops.Y = append(drops.X, float64(i)/10), append(drops.Y, d)
	}
	acc := Series{Name: "avg accuracy"}
	nIv := 0
	for _, as := range accs {
		if len(as) > nIv {
			nIv = len(as)
		}
	}
	for iv := 0; iv < nIv; iv++ {
		var sum float64
		n := 0
		for _, as := range accs {
			if iv < len(as) {
				sum += as[iv]
				n++
			}
		}
		if n > 0 {
			acc.X, acc.Y = append(acc.X, float64(iv)), append(acc.Y, sum/float64(n))
		}
	}
	return Figure{ID: id, Title: title, XLabel: "time (s) / interval", YLabel: "rate / drops / accuracy",
		Series: []Series{rate, drops, acc}}
}

func fig667(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	mkQs := func() []queries.Query { return ch6Qs(cfg.Seed) }
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), mkQs(), cfg.Seed+66, 2)
	ref := loadshed.Reference(ch6Src(cfg, dur), mkQs(), cfg.Seed+66)

	var figs []Figure
	var notes []string
	for _, v := range []struct {
		id, name string
		strat    sched.Strategy
		withCust bool
	}{
		{"fig6.6", "eq_srates, no custom shedding", sched.EqualRates{RespectMinRates: true}, false},
		{"fig6.7", "mmfs_pkt with custom shedding", sched.MMFSPkt{}, true},
	} {
		res := loadshed.New(loadshed.Config{
			Scheme: loadshed.Predictive, Capacity: capacity2x,
			Seed: cfg.Seed + 67, Strategy: v.strat, CustomShedding: v.withCust,
		}, mkQs()).Run(ch6Src(cfg, dur))
		accs := loadshed.Accuracies(mkQs(), res, ref, 10)
		figs = append(figs, timelineFigure(v.id, v.name, res, accs))
		avg, min, _ := meanAccuracy(accs)
		notes = append(notes, fmt.Sprintf("%s: avg accuracy %.3f, min %.3f", v.name, avg, min))
	}
	return &Result{Figures: figs, Notes: notes}, nil
}

func fig68(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	pps := trace.UPC2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	ddos := trace.NewOnOffDDoS(dur/3, dur/3, 8*pps, pkt.IPv4(147, 83, 1, 1))
	mkQs := func() []queries.Query { return ch6Qs(cfg.Seed) }
	ovh, normal := loadshed.MeasureLoad(ch6Src(cfg, dur), mkQs(), cfg.Seed+68) // normal-traffic load
	ref := loadshed.Reference(ch6Src(cfg, dur, ddos), mkQs(), cfg.Seed+68)
	res := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: ovh + normal*1.2,
		Seed: cfg.Seed + 69, Strategy: sched.MMFSPkt{}, CustomShedding: true,
		BufferBins: 2,
	}, mkQs()).Run(ch6Src(cfg, dur, ddos))
	accs := loadshed.Accuracies(mkQs(), res, ref, 10)
	fig := timelineFigure("fig6.8", "massive spoofed on/off DDoS", res, accs)
	return &Result{Figures: []Figure{fig}, Notes: []string{
		fmt.Sprintf("uncontrolled drops: %d of %d packets", res.TotalDrops(), res.TotalWirePkts()),
	}}, nil
}

func fig69(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	bins := int(dur / trace.DefaultTimeBin)
	mkBase := func() []queries.Query {
		return []queries.Query{
			queries.NewCounter(queries.Config{Seed: cfg.Seed}),
			queries.NewFlows(queries.Config{Seed: cfg.Seed}),
		}
	}
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), ch6Qs(cfg.Seed), cfg.Seed+70, 2)
	res := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: capacity2x,
		Seed: cfg.Seed + 71, Strategy: sched.MMFSPkt{}, CustomShedding: true,
		Arrivals: []loadshed.Arrival{
			{AtBin: bins / 4, Make: func() queries.Query { return queries.NewTopK(queries.Config{Seed: cfg.Seed}, 0) }},
			{AtBin: bins / 2, Make: func() queries.Query { return queries.NewP2PDetector(queries.Config{Seed: cfg.Seed}) }},
		},
	}, mkBase()).Run(ch6Src(cfg, dur))

	rate := Series{Name: "mean rate"}
	nq := Series{Name: "active queries"}
	for i, b := range res.Bins {
		rate.X, rate.Y = append(rate.X, float64(i)/10), append(rate.Y, stats.Mean(b.Rates))
		nq.X, nq.Y = append(nq.X, float64(i)/10), append(nq.Y, float64(len(b.Rates)))
	}
	return &Result{Figures: []Figure{{
		ID: "fig6.9", Title: "query arrivals", XLabel: "time (s)", YLabel: "rate / query count",
		Series: []Series{rate, nq},
	}}, Notes: []string{
		fmt.Sprintf("drops: %d (the system re-converges after each arrival)", res.TotalDrops()),
	}}, nil
}

// misbehaverTimeline runs the fig6.10/6.11 scenario with the given
// wrapper applied to arriving p2p clones.
func misbehaverTimeline(cfg Config, id, title string, wrap func(custom.ShedderQuery) queries.Query) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	bins := int(dur / trace.DefaultTimeBin)
	mkQs := func() []queries.Query { return ch6Qs(cfg.Seed) }
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), mkQs(), cfg.Seed+72, 2)
	ref := loadshed.Reference(ch6Src(cfg, dur), mkQs(), cfg.Seed+72)
	arrive := func() queries.Query {
		return wrap(queries.NewP2PDetector(queries.Config{Seed: cfg.Seed + 5}))
	}
	sys := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: capacity2x,
		Seed: cfg.Seed + 73, Strategy: sched.MMFSPkt{}, CustomShedding: true,
		Arrivals: []loadshed.Arrival{
			{AtBin: bins / 3, Make: arrive},
			{AtBin: 2 * bins / 3, Make: arrive},
		},
	}, mkQs())
	res := sys.Run(ch6Src(cfg, dur))
	accs := loadshed.Accuracies(mkQs(), res, ref, 10)
	fig := timelineFigure(id, title, res, accs)

	notes := []string{}
	for _, st := range sys.CustomStates() {
		notes = append(notes, fmt.Sprintf("%s: final mode %v, corr %.2f", st.Name(), st.Mode(), st.Corr()))
	}
	avg, _, byQ := meanAccuracy(accs)
	notes = append(notes, fmt.Sprintf("resident avg accuracy %.3f (counter %.3f)", avg, byQ["counter"]))
	return &Result{Figures: []Figure{fig}, Notes: notes}, nil
}

func fig610(cfg Config) (*Result, error) {
	return misbehaverTimeline(cfg, "fig6.10", "selfish p2p clones arriving",
		func(q custom.ShedderQuery) queries.Query { return custom.NewSelfish(q) })
}

func fig611(cfg Config) (*Result, error) {
	return misbehaverTimeline(cfg, "fig6.11", "buggy p2p clones arriving",
		func(q custom.ShedderQuery) queries.Query { return custom.NewBuggy(q) })
}

// onlineRun is the shared fig6.12-14 / tab6.2 execution.
func onlineRun(cfg Config) (*loadshed.RunResult, *loadshed.RunResult, func() []queries.Query, float64) {
	dur := cfg.dur(40 * time.Second)
	mkQs := func() []queries.Query { return queries.FullSet(queries.Config{Seed: cfg.Seed}) }
	capacity2x := loadshed.CapacityForOverload(ch6Src(cfg, dur), mkQs(), cfg.Seed+74, 2)
	ref := loadshed.Reference(ch6Src(cfg, dur), mkQs(), cfg.Seed+74)
	res := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: capacity2x,
		Seed: cfg.Seed + 75, Strategy: sched.MMFSPkt{}, CustomShedding: true,
	}, mkQs()).Run(ch6Src(cfg, dur))
	return res, ref, mkQs, capacity2x
}

func fig61214(cfg Config) (*Result, error) {
	res, ref, mkQs, capacity := onlineRun(cfg)

	cpu := Figure{ID: "fig6.12", Title: "CPU after shedding (stacked) and predicted", XLabel: "time (s)", YLabel: "cycles/bin"}
	overhead := Series{Name: "overhead"}
	withShed := Series{Name: "+shedding"}
	withQueries := Series{Name: "+queries"}
	predicted := Series{Name: "predicted"}
	capLine := Series{Name: "capacity"}
	buffer := Series{Name: "buffer occupancy (bins)"}
	for i, b := range res.Bins {
		x := float64(i) / 10
		overhead.X, overhead.Y = append(overhead.X, x), append(overhead.Y, b.Overhead)
		withShed.X, withShed.Y = append(withShed.X, x), append(withShed.Y, b.Overhead+b.Shed)
		withQueries.X, withQueries.Y = append(withQueries.X, x), append(withQueries.Y, b.Overhead+b.Shed+b.Used)
		predicted.X, predicted.Y = append(predicted.X, x), append(predicted.Y, b.Predicted)
		capLine.X, capLine.Y = append(capLine.X, x), append(capLine.Y, capacity)
		buffer.X, buffer.Y = append(buffer.X, x), append(buffer.Y, b.BufferBins)
	}
	cpu.Series = []Series{overhead, withShed, withQueries, predicted, capLine}

	buf := Figure{ID: "fig6.13", Title: "buffer occupancy and drops", XLabel: "time (s)", YLabel: "bins / packets"}
	drops := Series{Name: "drops"}
	for i, b := range res.Bins {
		drops.X, drops.Y = append(drops.X, float64(i)/10), append(drops.Y, float64(b.DropPkts))
	}
	buf.Series = []Series{buffer, drops}

	accs := loadshed.Accuracies(mkQs(), res, ref, 10)
	accFig := timelineFigure("fig6.14", "overall accuracy and shedding rate", res, accs)

	avg, min, _ := meanAccuracy(accs)
	return &Result{Figures: []Figure{cpu, buf, accFig}, Notes: []string{
		fmt.Sprintf("avg accuracy %.3f, min %.3f, drops %d", avg, min, res.TotalDrops()),
	}}, nil
}

func tab62(cfg Config) (*Result, error) {
	res, ref, mkQs, _ := onlineRun(cfg)
	accs := loadshed.Accuracies(mkQs(), res, ref, 10)
	t := Table{
		ID: "tab6.2", Title: "accuracy by query (mean ± stdev)",
		Columns: []string{"query", "accuracy"},
	}
	for _, q := range mkQs() {
		as := accs[q.Name()]
		t.Rows = append(t.Rows, []string{
			q.Name(), fmtF(stats.Mean(as), 3) + " ±" + fmtF(stats.Stdev(as), 3),
		})
	}
	return &Result{Tables: []Table{t}}, nil
}
