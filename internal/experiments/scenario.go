package experiments

import (
	"slices"
	"time"

	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// scenario is the set-up every experiment that runs the engine shares:
// the traffic a run replays, the queries it runs, and the seed of the
// lossless probe and reference runs. The systems under comparison run
// at the next seed, seed+1. Every method builds fresh sources and
// queries, so a scenario can be probed, referenced and run any number
// of times. Chapter 3 runs it through predict (common.go).
type scenario struct {
	src  func() trace.Source
	qs   func() []queries.Query
	seed uint64
}

// newScenario is src under a query set built at cfg.Seed, probed at
// seed.
func newScenario(cfg Config, seed uint64, src func() trace.Source, set func(queries.Config) []queries.Query) scenario {
	return scenario{src: src, qs: func() []queries.Query { return set(queries.Config{Seed: cfg.Seed}) }, seed: seed}
}

// source makes fresh generators of a dataset preset at experiment
// scale, each carrying the anomalies given.
func source(preset func(uint64, time.Duration, float64) trace.Config, cfg Config, dur time.Duration, anomalies ...trace.Anomaly) func() trace.Source {
	return func() trace.Source {
		c := preset(cfg.Seed, dur, cfg.Scale)
		c.Anomalies = anomalies
		return trace.NewGenerator(c)
	}
}

// flowsOnly is the query set of a single flows query.
func flowsOnly(c queries.Config) []queries.Query { return []queries.Query{queries.NewFlows(c)} }

// load is loadshed.MeasureLoad over the scenario: the mean per-bin
// overhead and full-rate query demand.
func (s scenario) load() (overhead, demand float64) {
	return loadshed.MeasureLoad(s.src(), s.qs(), s.seed)
}

// demand is the thesis' C (§5.5.3), the capacity at which nothing is
// shed; overload level K runs at C·(1−K).
func (s scenario) demand() float64 {
	return loadshed.MeasureCapacity(s.src(), s.qs(), s.seed)
}

// overloaded is the capacity at which the query demand is factor times
// what the overhead leaves.
func (s scenario) overloaded(factor float64) float64 {
	return loadshed.CapacityForOverload(s.src(), s.qs(), s.seed, factor)
}

// reference is the lossless run every other run is scored against.
func (s scenario) reference() *loadshed.RunResult {
	return loadshed.Reference(s.src(), s.qs(), s.seed)
}

// newSystem builds a system under comparison over fresh queries.
func (s scenario) newSystem(c loadshed.Config) *loadshed.System {
	c.Seed = s.seed + 1
	return loadshed.New(c, s.qs())
}

// run replays the scenario's source through newSystem(c).
func (s scenario) run(c loadshed.Config) *loadshed.RunResult {
	return s.newSystem(c).Run(s.src())
}

// metricQueries are the Chapter 4 queries whose answer is a measured
// metric. The error of trace and pattern-search is 1 − processed
// fraction by definition (§2.2.1), so Chapter 4 leaves them out.
var metricQueries = []string{"application", "counter", "flows", "high-watermark", "top-k"}

// metricError is a run's mean error averaged over metricQueries.
func (s scenario) metricError(res, ref *loadshed.RunResult) float64 {
	errs := loadshed.MeanErrors(s.qs(), res, ref)
	var sum float64
	for _, q := range metricQueries {
		sum += errs[q]
	}
	return sum / float64(len(metricQueries))
}

// accuracy is a run scored as Chapters 5 and 6 score it: each query's
// accuracy per one-second interval (loadshed.Accuracies, §5.5). Every
// sum over queries runs in the run's query order, so a seed's averages
// are the same to the last bit on every run.
type accuracy struct {
	names []string             // the run's query names, each once, in run order
	per   map[string][]float64 // per query, per interval
}

// score rates res against the reference ref.
func (s scenario) score(res, ref *loadshed.RunResult) accuracy {
	return newAccuracy(res.Queries, loadshed.Accuracies(s.qs(), res, ref, 10))
}

func newAccuracy(order []string, per map[string][]float64) accuracy {
	a := accuracy{per: per}
	for _, name := range order {
		if !slices.Contains(a.names, name) {
			a.names = append(a.names, name)
		}
	}
	return a
}

// mean averages each query over its intervals and returns the average
// and the minimum over queries, with the per-query means.
func (a accuracy) mean() (avg, min float64, byQuery map[string]float64) {
	byQuery = map[string]float64{}
	min = 1
	for _, name := range a.names {
		m := stats.Mean(a.per[name])
		byQuery[name] = m
		avg += m
		if m < min {
			min = m
		}
	}
	if len(a.names) > 0 {
		avg /= float64(len(a.names))
	}
	return avg, min, byQuery
}

// overTime averages, per interval, the queries that ran in it.
func (a accuracy) overTime() []float64 {
	var out []float64
	for iv := 0; ; iv++ {
		var sum float64
		n := 0
		for _, name := range a.names {
			if as := a.per[name]; iv < len(as) {
				sum += as[iv]
				n++
			}
		}
		if n == 0 {
			return out
		}
		out = append(out, sum/float64(n))
	}
}

// system is one named configuration an experiment compares; a sweep
// fills in its capacity, and scenario.newSystem its seed.
type system struct {
	name string
	cfg  loadshed.Config
}

// sweepK runs every system at each overload level K of grid, at
// capacity C·(1−K) for the scenario's demand C, and scores each run
// against the reference: acc[i][j] is systems[i] at grid[j]. It is the
// comparison of Figures 5.4, 5.5 and 6.5 and Table 5.2.
func (s scenario) sweepK(grid []float64, systems []system) (acc [][]accuracy) {
	demand := s.demand()
	ref := s.reference()
	acc = make([][]accuracy, len(systems))
	for i, sys := range systems {
		for _, k := range grid {
			sys.cfg.Capacity = demand * (1 - k)
			acc[i] = append(acc[i], s.score(s.run(sys.cfg), ref))
		}
	}
	return acc
}

// kFigures renders a sweep as its average and minimum accuracy figures,
// id+"a" and id+"b".
func kFigures(id, xLabel string, grid []float64, systems []system, acc [][]accuracy) []Figure {
	avg := Figure{ID: id + "a", Title: "average accuracy vs K", XLabel: xLabel, YLabel: "accuracy"}
	min := Figure{ID: id + "b", Title: "minimum accuracy vs K", XLabel: xLabel, YLabel: "accuracy"}
	for i, sys := range systems {
		avgS, minS := Series{Name: sys.name, X: grid}, Series{Name: sys.name, X: grid}
		for _, a := range acc[i] {
			av, mn, _ := a.mean()
			avgS.Y, minS.Y = append(avgS.Y, av), append(minS.Y, mn)
		}
		avg.Series, min.Series = append(avg.Series, avgS), append(min.Series, minS)
	}
	return []Figure{avg, min}
}
