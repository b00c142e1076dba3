package experiments

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

func init() {
	register("fig4.1", "CDF of CPU usage per batch (predictive / original / reactive)", fig41)
	register("fig4.2", "Link load, uncontrolled drops and unsampled packets per scheme", fig42)
	register("fig4.3", "Average accuracy error in the query answers per scheme", fig43)
	register("fig4.4", "CPU usage after load shedding (stacked) and predicted load", fig44)
	register("fig4.5-6", "CPU usage and errors with/without shedding under a SYN flood", fig456)
	register("tab4.1", "Breakdown of accuracy error per query and scheme", tab41)
}

// ch4Setup is the busy scenario of the Chapter 4 evaluation: CESCA-II
// plus a spoofed on/off DDoS for half the run, under the standard query
// set, at a capacity where query demand is about twice what is left.
type ch4Setup struct {
	scenario
	capacity float64
	ref      *loadshed.RunResult
}

func newCh4Setup(cfg Config, dur time.Duration, seed uint64) *ch4Setup {
	pps := trace.CESCA2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	ddos := trace.NewOnOffDDoS(dur/4, dur/2, 4*pps, pkt.IPv4(147, 83, 1, 1))
	s := &ch4Setup{scenario: newScenario(cfg, seed, source(trace.CESCA2, cfg, dur, ddos), queries.StandardSet)}
	s.capacity = s.overloaded(2)
	s.ref = s.reference()
	return s
}

// ch4 is the set-up of the Chapter 4 figures.
func ch4(cfg Config) *ch4Setup { return newCh4Setup(cfg, cfg.dur(30*time.Second), cfg.Seed+90) }

// runWith runs c at the set-up's capacity with a modest capture
// buffer, the thesis' 200 ms buffer emulation.
func (s *ch4Setup) runWith(c loadshed.Config) *loadshed.RunResult {
	c.Capacity = s.capacity
	c.BufferBins = 2
	return s.run(c)
}

var ch4Schemes = []loadshed.Scheme{loadshed.Predictive, loadshed.Original, loadshed.Reactive}

// runs runs each of ch4Schemes once, in order.
func (s *ch4Setup) runs() []*loadshed.RunResult {
	out := make([]*loadshed.RunResult, len(ch4Schemes))
	for i, sch := range ch4Schemes {
		out[i] = s.runWith(loadshed.Config{Scheme: sch})
	}
	return out
}

func fig41(cfg Config) (*Result, error) {
	s := ch4(cfg)
	fig := Figure{
		ID: "fig4.1", Title: "CDF of per-batch CPU usage",
		XLabel: "cycles/batch", YLabel: "F(cpu usage)",
	}
	notes := []string{fmtF(s.capacity, 0) + " cycles available per batch"}
	for i, res := range s.runs() {
		sch := ch4Schemes[i].String()
		pts := stats.CDF(res.UsedPerBin())
		ser := Series{Name: sch}
		step := 1
		if len(pts) > 200 {
			step = len(pts) / 200
		}
		for i := 0; i < len(pts); i += step {
			ser.X = append(ser.X, pts[i].X)
			ser.Y = append(ser.Y, pts[i].F)
		}
		fig.Series = append(fig.Series, ser)
		over := stats.CDFAt(res.UsedPerBin(), s.capacity)
		notes = append(notes, sch+": P(used > capacity) = "+fmtPct(1-over))
	}
	return &Result{Figures: []Figure{fig}, Notes: notes}, nil
}

func fig42(cfg Config) (*Result, error) {
	var figs []Figure
	notes := []string{}
	for i, res := range ch4(cfg).runs() {
		sch := ch4Schemes[i].String()
		// Aggregated to 1 s buckets as the figure does.
		figs = append(figs, Figure{
			ID: "fig4.2-" + sch, Title: "load and losses (" + sch + ")",
			XLabel: "time (s)", YLabel: "packets/s",
			Series: []Series{
				perSecond("total packets", res.Bins, false, func(b *loadshed.BinStats) float64 { return float64(b.WirePkts) }),
				perSecond("dag drops", res.Bins, false, func(b *loadshed.BinStats) float64 { return float64(b.DropPkts) }),
				perSecond("unsampled", res.Bins, false, func(b *loadshed.BinStats) float64 { return (1 - b.GlobalRate) * float64(b.AdmitPkts) }),
			},
		})
		notes = append(notes, sch+": total drops "+
			fmtPct(float64(res.TotalDrops())/float64(res.TotalWirePkts())))
	}
	return &Result{Figures: figs, Notes: notes}, nil
}

func fig43(cfg Config) (*Result, error) {
	s := ch4(cfg)
	t := Table{
		ID: "fig4.3", Title: "average error across metric queries",
		Columns: []string{"scheme", "avg error"},
	}
	for i, res := range s.runs() {
		t.Rows = append(t.Rows, []string{ch4Schemes[i].String(), fmtPct(s.metricError(res, s.ref))})
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"paper shape: predictive < 2%, original and reactive far worse"}}, nil
}

func fig44(cfg Config) (*Result, error) {
	s := ch4(cfg)
	res := s.runWith(loadshed.Config{Scheme: loadshed.Predictive})
	return &Result{Figures: []Figure{{
		ID: "fig4.4", Title: "stacked CPU usage after shedding vs predicted demand",
		XLabel: "time (s)", YLabel: "cycles/bin",
		Series: stackedCPU(res.Bins, s.capacity, [5]string{"como+prediction", "+load shedding", "+queries", "predicted (unshed)", "capacity"}),
	}}}, nil
}

// synFlood is Figures 4.5 and 4.6: the flows query under a SYN flood,
// with flow sampling, with packet sampling, and without shedding.
type synFlood struct {
	capacity                 float64
	flow, none               *loadshed.RunResult
	errFlow, errPkt, errNone []float64 // per-interval flows-query error
}

func runSYNFlood(cfg Config) synFlood {
	// Single flows query; a SYN flood doubles its load for a third of
	// the run; capacity fixed so the flood overloads the system.
	dur := cfg.dur(30 * time.Second)
	pps := trace.CESCA1(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	normal := newScenario(cfg, cfg.Seed+92, source(trace.CESCA1, cfg, dur), flowsOnly)
	flood := normal
	flood.src = source(trace.CESCA1, cfg, dur, trace.NewSYNFlood(dur/3, dur/3, 3*pps, pkt.IPv4(147, 83, 1, 1), 80))
	packet := newScenario(cfg, normal.seed, flood.src, func(c queries.Config) []queries.Query {
		return []queries.Query{queries.WithMethod(queries.NewFlows(c), sampling.Packet)}
	})

	// Capacity: overhead (reserved at flood packet rates — capture and
	// feature extraction cannot be shed) plus 1.3x the normal-traffic
	// query demand, so only the flood overloads the query budget. The
	// thesis experiment set the availability threshold manually in the
	// same spirit (§4.5.5).
	ovh, demand := normal.load()
	r := synFlood{capacity: 4*ovh + demand*1.3}
	ref := flood.reference()
	run := func(s scenario, scheme loadshed.Scheme) (*loadshed.RunResult, []float64) {
		res := s.run(loadshed.Config{Scheme: scheme, Capacity: r.capacity, BufferBins: 2})
		return res, loadshed.Errors(flood.qs(), res, ref)["flows"]
	}
	r.flow, r.errFlow = run(flood, loadshed.Predictive)
	_, r.errPkt = run(packet, loadshed.Predictive)
	r.none, r.errNone = run(flood, loadshed.Original)
	return r
}

func fig456(cfg Config) (*Result, error) {
	r := runSYNFlood(cfg)
	used := func(b *loadshed.BinStats) float64 { return b.Used }
	return &Result{Figures: []Figure{
		{
			ID: "fig4.5a", Title: "CPU usage with and without load shedding (SYN flood)",
			XLabel: "time (s)", YLabel: "cycles/bin",
			Series: []Series{
				overBins("load shedding", r.flow.Bins, used),
				overBins("no load shedding", r.none.Bins, used),
				overBins("cpu threshold", r.flow.Bins, func(*loadshed.BinStats) float64 { return r.capacity }),
			},
		},
		{
			ID: "fig4.5b", Title: "flows-query error with and without load shedding",
			XLabel: "interval", YLabel: "relative error",
			Series: []Series{
				indexed("flow sampling", r.errFlow),
				indexed("packet sampling", r.errPkt),
				indexed("no load shedding", r.errNone),
			},
		},
	}, Notes: []string{
		"mean error — flow sampling: " + fmtPct(stats.Mean(r.errFlow)) +
			", packet sampling: " + fmtPct(stats.Mean(r.errPkt)) +
			", no shedding: " + fmtPct(stats.Mean(r.errNone)),
		"paper shape: flow < packet << none",
	}}, nil
}

func tab41(cfg Config) (*Result, error) {
	s := ch4(cfg)
	t := Table{
		ID: "tab4.1", Title: "accuracy error per query and scheme (mean ± stdev)",
		Columns: []string{"query", "predictive", "original", "reactive"},
	}
	var perScheme []map[string][]float64
	for _, res := range s.runs() {
		perScheme = append(perScheme, loadshed.Errors(s.qs(), res, s.ref))
	}
	for _, q := range metricQueries {
		row := []string{q}
		for _, errs := range perScheme {
			es := errs[q]
			row = append(row, fmtPct(stats.Mean(es))+" ±"+fmtPct(stats.Stdev(es)))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{Tables: []Table{t},
		Notes: []string{"trace and pattern-search omitted: their error is 1 − processed fraction by definition (§2.2.1)"}}, nil
}
