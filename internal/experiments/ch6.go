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
func ch6Qs(c queries.Config) []queries.Query {
	return []queries.Query{
		queries.NewP2PDetector(c),
		queries.NewCounter(c),
		queries.NewFlows(c),
		queries.NewHighWatermark(c),
		queries.NewTopK(c, 0),
	}
}

// upc2 is the Chapter 6 trace: UPC-II with a 15 % p2p share.
func upc2(seed uint64, dur time.Duration, scale float64) trace.Config {
	c := trace.UPC2(seed, dur, scale)
	c.P2PFrac = 0.15
	return c
}

// ch6Scenario is Chapter 6's: the UPC-II trace with a p2p share under
// the validation set.
func ch6Scenario(cfg Config, dur time.Duration, seed uint64, anomalies ...trace.Anomaly) scenario {
	return newScenario(cfg, seed, source(upc2, cfg, dur, anomalies...), ch6Qs)
}

// ch6System is the system of most Chapter 6 runs: predictive shedding
// under mmfs_pkt, with custom shedding on.
func ch6System(capacity float64) loadshed.Config {
	return loadshed.Config{Scheme: loadshed.Predictive, Capacity: capacity, Strategy: sched.MMFSPkt{}, CustomShedding: true}
}

// p2pMethod is one row of Figures 6.1 and 6.2: the p2p-detector at 2x
// overload under one shedding method.
type p2pMethod struct {
	name             string
	pred, used, rate float64 // per-bin means
	err              float64 // mean error against the reference
}

func runP2PMethods(cfg Config) []p2pMethod {
	s := ch6Scenario(cfg, cfg.dur(20*time.Second), cfg.Seed+60)
	capacity := s.overloaded(2)
	ref := s.reference()
	var out []p2pMethod
	for _, m := range []struct {
		name   string
		method sampling.Method
	}{
		{"packet-sampling", sampling.Packet},
		{"flow-sampling", sampling.Flow},
		{"custom", sampling.Custom},
	} {
		v := newScenario(cfg, s.seed, s.src, func(c queries.Config) []queries.Query {
			qs := ch6Qs(c)
			if m.method != sampling.Custom {
				qs[0] = queries.WithMethod(qs[0], m.method)
			}
			return qs
		})
		c := ch6System(capacity)
		c.CustomShedding = m.method == sampling.Custom
		res := v.run(c)
		r := p2pMethod{name: m.name}
		for _, b := range res.Bins {
			r.pred += b.QueryPred[0]
			r.used += b.QueryUsed[0]
			r.rate += b.Rates[0]
		}
		n := float64(len(res.Bins))
		r.pred, r.used, r.rate = r.pred/n, r.used/n, r.rate/n
		r.err = stats.Mean(loadshed.Errors(s.qs(), res, ref)["p2p-detector"])
		out = append(out, r)
	}
	return out
}

func fig612(cfg Config) (*Result, error) {
	costT := Table{
		ID: "fig6.1", Title: "p2p-detector mean prediction and usage per bin",
		Columns: []string{"method", "mean predicted", "mean used", "mean rate"},
	}
	accT := Table{
		ID: "fig6.2", Title: "p2p-detector accuracy error per method",
		Columns: []string{"method", "mean error"},
	}
	for _, m := range runP2PMethods(cfg) {
		costT.Rows = append(costT.Rows, []string{
			m.name, fmtF(m.pred, 0), fmtF(m.used, 0), fmtF(m.rate, 2),
		})
		accT.Rows = append(accT.Rows, []string{m.name, fmtPct(m.err)})
	}
	return &Result{Tables: []Table{costT, accT}, Notes: []string{
		"paper shape: custom shedding error well below packet and flow sampling at equal budget",
	}}, nil
}

func fig63(cfg Config) (*Result, error) {
	s := ch6Scenario(cfg, cfg.dur(20*time.Second), cfg.Seed+62)
	sys := s.newSystem(ch6System(s.overloaded(2)))
	expected := Series{Name: "expected"}
	actual := Series{Name: "actual"}
	corr := Series{Name: "correction factor"}
	// The audit state is read after every bin; nothing else of the run
	// is kept.
	bin := 0
	sys.Stream(s.src(), loadshed.SinkFuncs{Bin: func(*loadshed.BinStats) {
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
	fig := rateFigure(cfg, "fig6.4", "accuracy vs packet sampling rate", "high-watermark", "top-k", "p2p-detector")
	return &Result{Figures: []Figure{fig}, Notes: []string{
		"paper shape: p2p-detector degrades ~linearly with the rate; high-watermark is robust",
	}}, nil
}

func fig65(cfg Config) (*Result, error) {
	s := ch6Scenario(cfg, cfg.dur(15*time.Second), cfg.Seed+64)
	grid := kGrid(cfg.Quick)
	systems := []system{
		{"sampling-only", loadshed.Config{Scheme: loadshed.Predictive, Strategy: sched.MMFSPkt{}}},
		{"with-custom", ch6System(0)},
	}
	return &Result{Figures: kFigures("fig6.5", "K", grid, systems, s.sweepK(grid, systems))}, nil
}

// timelineFigure summarizes one run as the Chapter 6 timeline plots do.
func timelineFigure(id, title string, res *loadshed.RunResult, acc accuracy) Figure {
	return Figure{ID: id, Title: title, XLabel: "time (s) / interval", YLabel: "rate / drops / accuracy",
		Series: []Series{
			perSecond("mean sampling rate", res.Bins, true, func(b *loadshed.BinStats) float64 { return stats.Mean(b.Rates) }),
			perSecond("drops/s", res.Bins, false, func(b *loadshed.BinStats) float64 { return float64(b.DropPkts) }),
			indexed("avg accuracy", acc.overTime()),
		}}
}

func fig667(cfg Config) (*Result, error) {
	s := ch6Scenario(cfg, cfg.dur(20*time.Second), cfg.Seed+66)
	capacity := s.overloaded(2)
	ref := s.reference()

	var figs []Figure
	var notes []string
	eqSrates := loadshed.Config{Scheme: loadshed.Predictive, Capacity: capacity, Strategy: sched.EqualRates{RespectMinRates: true}}
	for _, v := range []struct {
		id string
		system
	}{
		{"fig6.6", system{"eq_srates, no custom shedding", eqSrates}},
		{"fig6.7", system{"mmfs_pkt with custom shedding", ch6System(capacity)}},
	} {
		res := s.run(v.cfg)
		acc := s.score(res, ref)
		figs = append(figs, timelineFigure(v.id, v.name, res, acc))
		avg, min, _ := acc.mean()
		notes = append(notes, fmt.Sprintf("%s: avg accuracy %.3f, min %.3f", v.name, avg, min))
	}
	return &Result{Figures: figs, Notes: notes}, nil
}

func fig68(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	pps := trace.UPC2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	ddos := trace.NewOnOffDDoS(dur/3, dur/3, 8*pps, pkt.IPv4(147, 83, 1, 1))
	ovh, normal := ch6Scenario(cfg, dur, cfg.Seed+68).load() // normal-traffic load
	s := ch6Scenario(cfg, dur, cfg.Seed+68, ddos)
	ref := s.reference()
	c := ch6System(ovh + normal*1.2)
	c.BufferBins = 2
	res := s.run(c)
	fig := timelineFigure("fig6.8", "massive spoofed on/off DDoS", res, s.score(res, ref))
	return &Result{Figures: []Figure{fig}, Notes: []string{
		fmt.Sprintf("uncontrolled drops: %d of %d packets", res.TotalDrops(), res.TotalWirePkts()),
	}}, nil
}

func fig69(cfg Config) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	bins := int(dur / trace.DefaultTimeBin)
	s := ch6Scenario(cfg, dur, cfg.Seed+70)
	capacity := s.overloaded(2)
	// Two of the validation queries start; the other two arrive.
	s = newScenario(cfg, s.seed, s.src, func(c queries.Config) []queries.Query {
		return []queries.Query{
			queries.NewCounter(c),
			queries.NewFlows(c),
		}
	})
	c := ch6System(capacity)
	c.Arrivals = []loadshed.Arrival{
		{AtBin: bins / 4, Make: func() queries.Query { return queries.NewTopK(queries.Config{Seed: cfg.Seed}, 0) }},
		{AtBin: bins / 2, Make: func() queries.Query { return queries.NewP2PDetector(queries.Config{Seed: cfg.Seed}) }},
	}
	res := s.run(c)

	return &Result{Figures: []Figure{{
		ID: "fig6.9", Title: "query arrivals", XLabel: "time (s)", YLabel: "rate / query count",
		Series: []Series{
			overBins("mean rate", res.Bins, func(b *loadshed.BinStats) float64 { return stats.Mean(b.Rates) }),
			overBins("active queries", res.Bins, func(b *loadshed.BinStats) float64 { return float64(len(b.Rates)) }),
		},
	}}, Notes: []string{
		fmt.Sprintf("drops: %d (the system re-converges after each arrival)", res.TotalDrops()),
	}}, nil
}

// misbehaverTimeline runs the fig6.10/6.11 scenario with the given
// wrapper applied to arriving p2p clones.
func misbehaverTimeline(cfg Config, id, title string, wrap func(custom.ShedderQuery) queries.Query) (*Result, error) {
	dur := cfg.dur(30 * time.Second)
	bins := int(dur / trace.DefaultTimeBin)
	s := ch6Scenario(cfg, dur, cfg.Seed+72)
	arrive := func() queries.Query {
		return wrap(queries.NewP2PDetector(queries.Config{Seed: cfg.Seed + 5}))
	}
	c := ch6System(s.overloaded(2))
	c.Arrivals = []loadshed.Arrival{{AtBin: bins / 3, Make: arrive}, {AtBin: 2 * bins / 3, Make: arrive}}
	ref := s.reference()
	sys := s.newSystem(c)
	res := sys.Run(s.src())
	acc := s.score(res, ref)
	fig := timelineFigure(id, title, res, acc)

	notes := []string{}
	for _, st := range sys.CustomStates() {
		notes = append(notes, fmt.Sprintf("%s: final mode %v, corr %.2f", st.Name(), st.Mode(), st.Corr()))
	}
	avg, _, byQ := acc.mean()
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

// onlineRun is the shared fig6.12-14 / tab6.2 execution: all ten
// queries on the Chapter 6 trace at 2x overload.
func onlineRun(cfg Config) (res *loadshed.RunResult, acc accuracy, capacity float64) {
	s := newScenario(cfg, cfg.Seed+74, source(upc2, cfg, cfg.dur(40*time.Second)), queries.FullSet)
	capacity = s.overloaded(2)
	ref := s.reference()
	res = s.run(ch6System(capacity))
	return res, s.score(res, ref), capacity
}

func fig61214(cfg Config) (*Result, error) {
	res, acc, capacity := onlineRun(cfg)
	cpu := Figure{ID: "fig6.12", Title: "CPU after shedding (stacked) and predicted", XLabel: "time (s)", YLabel: "cycles/bin",
		Series: stackedCPU(res.Bins, capacity, [5]string{"overhead", "+shedding", "+queries", "predicted", "capacity"})}
	buf := Figure{ID: "fig6.13", Title: "buffer occupancy and drops", XLabel: "time (s)", YLabel: "bins / packets",
		Series: []Series{
			overBins("buffer occupancy (bins)", res.Bins, func(b *loadshed.BinStats) float64 { return b.BufferBins }),
			overBins("drops", res.Bins, func(b *loadshed.BinStats) float64 { return float64(b.DropPkts) }),
		}}
	accFig := timelineFigure("fig6.14", "overall accuracy and shedding rate", res, acc)

	avg, min, _ := acc.mean()
	return &Result{Figures: []Figure{cpu, buf, accFig}, Notes: []string{
		fmt.Sprintf("avg accuracy %.3f, min %.3f, drops %d", avg, min, res.TotalDrops()),
	}}, nil
}

func tab62(cfg Config) (*Result, error) {
	_, acc, _ := onlineRun(cfg)
	t := Table{
		ID: "tab6.2", Title: "accuracy by query (mean ± stdev)",
		Columns: []string{"query", "accuracy"},
	}
	for _, name := range acc.names {
		as := acc.per[name]
		t.Rows = append(t.Rows, []string{
			name, fmtF(stats.Mean(as), 3) + " ±" + fmtF(stats.Stdev(as), 3),
		})
	}
	return &Result{Tables: []Table{t}}, nil
}
