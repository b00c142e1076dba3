package experiments

import (
	"time"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/pkg/loadshed"
)

func init() {
	register("ablation-predictor", "Ablation: which predictor drives the shedder (mlr / slr / ewma)", ablationPredictor)
	register("ablation-strategy", "Ablation: global rate vs per-query strategies at 2x overload", ablationStrategy)
}

// ablationPredictor swaps the cost predictor inside the otherwise
// unchanged predictive load shedding system. The paper argues (Ch. 3)
// that MLR+FCBF is the piece that makes predictive shedding work; this
// ablation shows what the full system loses with each cheaper model.
func ablationPredictor(cfg Config) (*Result, error) {
	s := newCh4Setup(cfg, cfg.dur(20*time.Second), cfg.Seed+110)

	t := Table{
		ID: "ablation-predictor", Title: "predictive shedding with different cost models",
		Columns: []string{"predictor", "drops", "avg metric error", "mean rate"},
	}
	for _, p := range []struct {
		kind string
		mk   predictorMaker
	}{
		{"mlr", mkMLR(predict.DefaultHistory, predict.DefaultThreshold)},
		{"slr", mkSLR()},
		{"ewma", mkEWMA(predict.DefaultEWMAAlpha)},
	} {
		res := s.runWith(loadshed.Config{Scheme: loadshed.Predictive, Predictor: p.mk})
		var rates []float64
		for _, b := range res.Bins {
			rates = append(rates, b.GlobalRate)
		}
		t.Rows = append(t.Rows, []string{
			p.kind,
			fmtPct(float64(res.TotalDrops()) / float64(res.TotalWirePkts())),
			fmtPct(s.metricError(res, s.ref)),
			fmtF(stats.Mean(rates), 3),
		})
	}
	return &Result{Tables: []Table{t}, Notes: []string{
		"expected shape: mlr lowest drops and error; ewma worst under the anomaly",
	}}, nil
}

// ablationStrategy isolates the Chapter 5 scheduler choice with the
// rest of the system fixed: the Chapter 4 single global rate against
// Chapter 5's predictive strategies.
func ablationStrategy(cfg Config) (*Result, error) {
	s := ch5Scenario(cfg, cfg.dur(15*time.Second), cfg.Seed+112)
	capacity := s.overloaded(2)
	ref := s.reference()

	t := Table{
		ID: "ablation-strategy", Title: "strategy choice at 2x overload (accuracy avg / min)",
		Columns: []string{"strategy", "avg accuracy", "min accuracy", "disabled query-bins"},
	}
	global := system{"global-rate", loadshed.Config{Scheme: loadshed.Predictive, CustomShedding: true}}
	for _, sys := range append([]system{global}, ch5Schemes[2:]...) {
		sys.cfg.Capacity = capacity
		res := s.run(sys.cfg)
		avg, min, _ := s.score(res, ref).mean()
		disabled := 0
		for _, b := range res.Bins {
			for _, r := range b.Rates {
				if r == 0 {
					disabled++
				}
			}
		}
		t.Rows = append(t.Rows, []string{sys.name, fmtF(avg, 3), fmtF(min, 3), fmtF(float64(disabled), 0)})
	}
	return &Result{Tables: []Table{t}}, nil
}
