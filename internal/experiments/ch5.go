package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

func init() {
	register("fig5.1", "Simulated mmfs_pkt − mmfs_cpu accuracy difference (1 heavy + 10 light)", fig51)
	register("fig5.2", "Measured mmfs_pkt − mmfs_cpu accuracy difference (1 trace + 10 counter)", fig52)
	register("fig5.3", "Accuracy of queries as a function of the sampling rate", fig53)
	register("fig5.4", "Average and minimum accuracy of five strategies vs overload level", fig54)
	register("fig5.5", "Autofocus accuracy over time at K = 0.2 per strategy", fig55)
	register("tab5.2", "Minimum sampling rates and accuracy at K = 0.5 per system", tab52)
	register("nash", "Empirical verification of the Nash equilibrium (Theorem 5.1)", nashExp)
}

func kGrid(quick bool) []float64 {
	if quick {
		return []float64{0, 0.25, 0.5, 0.75, 0.95}
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
}

func fig51(cfg Config) (*Result, error) {
	grid := kGrid(cfg.Quick)
	avgT := Table{ID: "fig5.1a", Title: "avg accuracy difference (mmfs_pkt − mmfs_cpu)", Columns: []string{"mq \\ K"}}
	minT := Table{ID: "fig5.1b", Title: "min accuracy difference (mmfs_pkt − mmfs_cpu)", Columns: []string{"mq \\ K"}}
	for _, k := range grid {
		avgT.Columns = append(avgT.Columns, fmtF(k, 2))
		minT.Columns = append(minT.Columns, fmtF(k, 2))
	}
	maxMinGap := 0.0
	for _, mq := range grid {
		avgRow := []string{fmtF(mq, 2)}
		minRow := []string{fmtF(mq, 2)}
		qs := lightHeavySet(10, mq)
		total := totalCost(qs)
		for _, k := range grid {
			capacity := total * (1 - k)
			cpu := simulate(qs, capacity, sched.MMFSCPU{})
			pkt := simulate(qs, capacity, sched.MMFSPkt{})
			avgRow = append(avgRow, fmtF(pkt.Avg-cpu.Avg, 3))
			minRow = append(minRow, fmtF(pkt.Min-cpu.Min, 3))
			if d := pkt.Min - cpu.Min; d > maxMinGap {
				maxMinGap = d
			}
		}
		avgT.Rows = append(avgT.Rows, avgRow)
		minT.Rows = append(minT.Rows, minRow)
	}
	return &Result{Tables: []Table{avgT, minT}, Notes: []string{
		"positive values show mmfs_pkt above mmfs_cpu; max min-accuracy gap = " + fmtF(maxMinGap, 3),
		"paper shape: near-zero average differences, clearly positive minimum differences",
	}}, nil
}

func fig52(cfg Config) (*Result, error) {
	dur := cfg.dur(10 * time.Second)
	grid := kGrid(true) // the measured surface is expensive; keep coarse
	s := newScenario(cfg, cfg.Seed+95, source(trace.CESCA2, cfg, dur), func(c queries.Config) []queries.Query {
		qs := []queries.Query{queries.NewTraceQuery(c)}
		for i := 0; i < 10; i++ {
			qs = append(qs, queries.NewCounter(queries.Config{Seed: c.Seed + uint64(i)}))
		}
		return qs
	})
	demand := s.demand()
	ref := s.reference()

	// The ten counters share a name, so accuracy is scored by query
	// index here rather than through scenario.score's names.
	measure := func(strat sched.Strategy, k float64) (avg, min float64) {
		res := s.run(loadshed.Config{Scheme: loadshed.Predictive, Capacity: demand * (1 - k), Strategy: strat})
		metric := s.qs()
		min = 1
		var sum float64
		for qi, mq := range metric {
			var errs []float64
			for iv := range res.Intervals {
				if qi < len(res.Intervals[iv].Results) && qi < len(ref.Intervals[iv].Results) {
					errs = append(errs, mq.Error(res.Intervals[iv].Results[qi], ref.Intervals[iv].Results[qi]))
				}
			}
			acc := 1 - stats.Clamp(stats.Mean(errs), 0, 1)
			sum += acc
			if acc < min {
				min = acc
			}
		}
		return sum / float64(len(metric)), min
	}

	avgT := Table{ID: "fig5.2a", Title: "measured avg accuracy difference", Columns: []string{"K", "pkt−cpu avg", "pkt−cpu min"}}
	for _, k := range grid {
		cpuAvg, cpuMin := measure(sched.MMFSCPU{}, k)
		pktAvg, pktMin := measure(sched.MMFSPkt{}, k)
		avgT.Rows = append(avgT.Rows, []string{
			fmtF(k, 2), fmtF(pktAvg-cpuAvg, 3), fmtF(pktMin-cpuMin, 3),
		})
	}
	return &Result{Tables: []Table{avgT}, Notes: []string{
		"1 trace + 10 counter queries; positive min differences confirm the simulation (Fig 5.1)",
	}}, nil
}

func fig53(cfg Config) (*Result, error) {
	return &Result{Figures: []Figure{rateFigure(cfg, "fig5.3", "accuracy vs sampling rate", "counter", "flows", "top-k", "autofocus")}}, nil
}

// rateFigure is each named query's accuracy at a range of fixed
// sampling rates, by its own method: Figures 5.3 and 6.4.
func rateFigure(cfg Config, id, title string, names ...string) Figure {
	dur := cfg.dur(10 * time.Second)
	rates := []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
	if cfg.Quick {
		rates = []float64{0.05, 0.3, 0.7, 1.0}
	}
	fig := Figure{ID: id, Title: title, XLabel: "sampling rate", YLabel: "accuracy"}
	for _, name := range names {
		s := Series{Name: name}
		for _, rate := range rates {
			s.X = append(s.X, rate)
			s.Y = append(s.Y, stats.Clamp(1-sampledError(cfg, dur, name, rate), 0, 1))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// sampledError runs query `name` at a fixed sampling rate, by its own
// method (packet or flow), over the CESCA-II source and returns its mean
// per-interval error versus a lossless run.
func sampledError(cfg Config, dur time.Duration, name string, rate float64) float64 {
	mk := func() queries.Query {
		for _, q := range queries.FullSet(queries.Config{Seed: cfg.Seed}) {
			if q.Name() == name {
				return q
			}
		}
		panic("unknown query " + name)
	}
	run := func(rate float64) []queries.Result {
		src := source(trace.CESCA2, cfg, dur)()
		src.Reset()
		q := mk()
		ps := sampling.NewPacketSampler(cfg.Seed + 97)
		fs := sampling.NewFlowSampler(cfg.Seed + 98)
		flows := pkt.NewFlowIndex(hash.FlowSalt(cfg.Seed))
		var sel []int32
		var out []queries.Result
		bin := 0
		for {
			b, ok := src.NextBatch()
			if !ok {
				break
			}
			if bin > 0 && bin%10 == 0 {
				r, _ := q.Flush()
				out = append(out, r)
				fs.StartInterval()
			}
			if rate < 1 {
				// Shed by selection, as the engine does: the query reads
				// the bin through its sampler's index list, and the flow
				// sampler and the query read one flow index of the bin.
				if q.Method() == sampling.Flow {
					b.IndexInto(flows)
					sel = fs.SelectInto(sel, flows, rate)
				} else {
					sel = ps.SelectInto(sel, len(b.Pkts), rate)
				}
				b.Sel = sel
				if len(sel) == 0 {
					b.Pkts = nil // a nil Sel would read as every packet
				}
			}
			q.Process(&b, rate)
			bin++
		}
		r, _ := q.Flush()
		return append(out, r)
	}
	ref := run(1)
	got := run(rate)
	metric := mk()
	var errs []float64
	for i := range got {
		if i < len(ref) {
			errs = append(errs, stats.Clamp(metric.Error(got[i], ref[i]), 0, 1))
		}
	}
	return stats.Mean(errs)
}

// ch5Scenario is Chapter 5's: CESCA-II under all ten queries.
func ch5Scenario(cfg Config, dur time.Duration, seed uint64) scenario {
	return newScenario(cfg, seed, source(trace.CESCA2, cfg, dur), queries.FullSet)
}

// ch5Schemes are the systems of Figures 5.4 and 5.5 and Table 5.2, in
// their column order, all with custom shedding on. no_lshed and
// reactive keep a 200 ms capture buffer (two bins), as Chapter 5
// emulates them.
var ch5Schemes = []system{
	{"no_lshed", loadshed.Config{Scheme: loadshed.NoShed, BufferBins: 2, CustomShedding: true}},
	{"reactive", loadshed.Config{Scheme: loadshed.Reactive, BufferBins: 2, CustomShedding: true}},
	{"eq_srates", loadshed.Config{Scheme: loadshed.Predictive, Strategy: sched.EqualRates{RespectMinRates: true}, CustomShedding: true}},
	{"mmfs_cpu", loadshed.Config{Scheme: loadshed.Predictive, Strategy: sched.MMFSCPU{}, CustomShedding: true}},
	{"mmfs_pkt", loadshed.Config{Scheme: loadshed.Predictive, Strategy: sched.MMFSPkt{}, CustomShedding: true}},
}

func fig54(cfg Config) (*Result, error) {
	s := ch5Scenario(cfg, cfg.dur(15*time.Second), cfg.Seed+98)
	grid := kGrid(cfg.Quick)
	return &Result{Figures: kFigures("fig5.4", "overload level K", grid, ch5Schemes, s.sweepK(grid, ch5Schemes)), Notes: []string{
		"paper shape: mmfs strategies dominate; mmfs_pkt highest minimum accuracy",
	}}, nil
}

func fig55(cfg Config) (*Result, error) {
	const k = 0.2
	s := ch5Scenario(cfg, cfg.dur(20*time.Second), cfg.Seed+100)
	// The figure leaves reactive out.
	systems := slices.DeleteFunc(slices.Clone(ch5Schemes), func(sys system) bool { return sys.cfg.Scheme == loadshed.Reactive })
	fig := Figure{ID: "fig5.5", Title: "autofocus accuracy over time (K=0.2)", XLabel: "interval", YLabel: "accuracy"}
	for i, acc := range s.sweepK([]float64{k}, systems) {
		fig.Series = append(fig.Series, indexed(systems[i].name, acc[0].per["autofocus"]))
	}
	return &Result{Figures: []Figure{fig}}, nil
}

func tab52(cfg Config) (*Result, error) {
	const k = 0.5
	s := ch5Scenario(cfg, cfg.dur(15*time.Second), cfg.Seed+102)
	t := Table{
		ID: "tab5.2", Title: "mq and average accuracy at K=0.5",
		Columns: []string{"query", "mq"},
	}
	var perScheme []map[string]float64
	for i, acc := range s.sweepK([]float64{k}, ch5Schemes) {
		_, _, byQuery := acc[0].mean()
		perScheme = append(perScheme, byQuery)
		t.Columns = append(t.Columns, ch5Schemes[i].name)
	}
	for _, q := range s.qs() {
		row := []string{q.Name(), fmtF(q.MinRate(), 2)}
		for _, byQuery := range perScheme {
			row = append(row, fmtF(byQuery[q.Name()], 2))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{Tables: []Table{t}}, nil
}

func nashExp(cfg Config) (*Result, error) {
	const capacity = 900.0
	t := Table{
		ID: "nash", Title: "best-response payoffs around the C/|Q| profile",
		Columns: []string{"strategy", "players", "fair payoff", "best deviation payoff", "equilibrium"},
	}
	for _, strat := range []sched.Strategy{sched.MMFSCPU{}, sched.MMFSPkt{}} {
		for _, n := range []int{2, 3, 5} {
			ps := make([]player, n)
			for i := range ps {
				ps[i] = player{Name: fmt.Sprintf("q%d", i), Demand: capacity, Claim: capacity / float64(n)}
			}
			fair := payoffs(ps, capacity, strat)[0]
			_, best := bestResponse(ps, 0, capacity, strat, 90)
			eq := isEquilibrium(ps, capacity, strat, 90)
			t.Rows = append(t.Rows, []string{
				strat.Name(), fmt.Sprintf("%d", n), fmtF(fair, 1), fmtF(best, 1), fmt.Sprintf("%v", eq),
			})
		}
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"Theorem 5.1: the C/|Q| profile is the unique Nash equilibrium"}}, nil
}
