package experiments

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// ch4DDoSSrc is the busy Chapter 4 scenario: CESCA-II plus a spoofed
// on/off DDoS for half the run.
func ch4DDoSSrc(cfg Config, dur time.Duration) trace.Source {
	pps := trace.CESCA2(cfg.Seed, dur, cfg.Scale).PacketsPerSec
	return srcCESCA2(cfg, dur,
		trace.NewOnOffDDoS(dur/4, dur/2, 4*pps, pkt.IPv4(147, 83, 1, 1)))
}

// strategyKinds enumerates the Chapter 5 strategies plus the Chapter 4
// single global rate (nil).
func strategyKinds() []struct {
	name  string
	strat sched.Strategy
} {
	return []struct {
		name  string
		strat sched.Strategy
	}{
		{"global-rate", nil},
		{"eq_srates", sched.EqualRates{RespectMinRates: true}},
		{"mmfs_cpu", sched.MMFSCPU{}},
		{"mmfs_pkt", sched.MMFSPkt{}},
	}
}

func init() {
	register("ablation-predictor", "Ablation: which predictor drives the shedder (mlr / slr / ewma)", ablationPredictor)
	register("ablation-strategy", "Ablation: global rate vs per-query strategies at 2x overload", ablationStrategy)
}

// ablationPredictor swaps the cost predictor inside the otherwise
// unchanged predictive load shedding loadshed. The paper argues (Ch. 3)
// that MLR+FCBF is the piece that makes predictive shedding work; this
// ablation shows what the full system loses with each cheaper model.
func ablationPredictor(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	mkQs := func() []queries.Query { return queries.StandardSet(queries.Config{Seed: cfg.Seed}) }
	capacity := loadshed.CapacityForOverload(ch4DDoSSrc(cfg, dur), mkQs(), cfg.Seed+110, 2)
	ref := loadshed.Reference(ch4DDoSSrc(cfg, dur), mkQs(), cfg.Seed+110)

	t := Table{
		ID: "ablation-predictor", Title: "predictive shedding with different cost models",
		Columns: []string{"predictor", "drops", "avg metric error", "mean rate"},
	}
	metricQueries := []string{"application", "counter", "flows", "high-watermark", "top-k"}
	for _, p := range []struct {
		kind string
		mk   predictorMaker
	}{
		{"mlr", mkMLR(predict.DefaultHistory, predict.DefaultThreshold)},
		{"slr", mkSLR()},
		{"ewma", mkEWMA(predict.DefaultEWMAAlpha)},
	} {
		res := loadshed.New(loadshed.Config{
			Scheme:     loadshed.Predictive,
			Capacity:   capacity,
			Seed:       cfg.Seed + 111,
			BufferBins: 2,
			Predictor:  p.mk,
		}, mkQs()).Run(ch4DDoSSrc(cfg, dur))
		errs := loadshed.MeanErrors(mkQs(), res, ref)
		var avg float64
		for _, q := range metricQueries {
			avg += errs[q]
		}
		var rates []float64
		for _, b := range res.Bins {
			rates = append(rates, b.GlobalRate)
		}
		t.Rows = append(t.Rows, []string{
			p.kind,
			fmtPct(float64(res.TotalDrops()) / float64(res.TotalWirePkts())),
			fmtPct(avg / float64(len(metricQueries))),
			fmtF(stats.Mean(rates), 3),
		})
	}
	return &Result{Tables: []Table{t}, Notes: []string{
		"expected shape: mlr lowest drops and error; ewma worst under the anomaly",
	}}, nil
}

// ablationStrategy isolates the Chapter 5 scheduler choice with the
// rest of the system fixed.
func ablationStrategy(cfg Config) (*Result, error) {
	dur := cfg.dur(15 * time.Second)
	mkQs := func() []queries.Query { return queries.FullSet(queries.Config{Seed: cfg.Seed}) }
	capacity := loadshed.CapacityForOverload(srcCESCA2(cfg, dur), mkQs(), cfg.Seed+112, 2)
	ref := loadshed.Reference(srcCESCA2(cfg, dur), mkQs(), cfg.Seed+112)

	t := Table{
		ID: "ablation-strategy", Title: "strategy choice at 2x overload (accuracy avg / min)",
		Columns: []string{"strategy", "avg accuracy", "min accuracy", "disabled query-bins"},
	}
	for _, kd := range strategyKinds() {
		res := loadshed.New(loadshed.Config{
			Scheme:         loadshed.Predictive,
			Capacity:       capacity,
			Seed:           cfg.Seed + 113,
			Strategy:       kd.strat,
			CustomShedding: true,
		}, mkQs()).Run(srcCESCA2(cfg, dur))
		accs := loadshed.Accuracies(mkQs(), res, ref, 10)
		avg, min, _ := meanAccuracy(accs)
		disabled := 0
		for _, b := range res.Bins {
			for _, r := range b.Rates {
				if r == 0 {
					disabled++
				}
			}
		}
		t.Rows = append(t.Rows, []string{kd.name, fmtF(avg, 3), fmtF(min, 3), fmtF(float64(disabled), 0)})
	}
	return &Result{Tables: []Table{t}}, nil
}
