package experiments

// robust.go — the anomaly-robustness suite. Not a thesis figure: the
// paper evaluates prediction accuracy on stationary traces and argues
// robustness qualitatively (§3.3.3's history window "forgets" old
// traffic). This experiment makes that argument quantitative, and
// measures how much the online change detector (internal/detect,
// Config.ChangeDetection) improves on pure forgetting: for each
// anomaly in the catalog it runs the predictive system with the
// detector off and on and reports pre-anomaly error, post-anomaly
// error, and how many bins each run needs to shake off the stale
// regime.
//
// The gradual drift is the interesting case by construction: it mimics
// the base traffic's address pools, port mix and size distribution but
// carries no payload, so it is collinear with the base traffic in
// feature space — the regression cannot dodge it with one separating
// coefficient, and recovery speed is governed by how fast the stale
// history leaves the fit. That is exactly what the detector
// accelerates (history truncation on its change verdict), and what
// TestDriftDetectorRecovery pins as a >= 2x speedup.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

func init() {
	register("robust", "Anomaly robustness: MLR accuracy under drift / flash crowd / topology shift, detector off vs on", robustExp)
}

// robustQs: pattern-search is the anomaly victim (its cost is linear in
// payload bytes, which every anomaly in the catalog decouples from the
// header features), flanked by the standard cheap companions.
func robustQs(c queries.Config) []queries.Query {
	return []queries.Query{
		queries.NewPatternSearch(c, nil),
		queries.NewCounter(c),
		queries.NewFlows(c),
	}
}

// robustConfig mirrors the drift regression test's operating point:
// predictive scheme, unlimited capacity and no measurement noise (so
// per-bin error is exactly model error), a long history window (the
// quantity the detector's truncation shortcuts), and the detector as
// every deployment runs it — package-default thresholds, truncation on
// a verdict.
func robustConfig(detectOn bool) loadshed.Config {
	return loadshed.Config{
		Scheme:          loadshed.Predictive,
		Strategy:        sched.MMFSPkt{},
		Capacity:        math.Inf(1),
		NoiseSigma:      -1,
		Workers:         1,
		Predictor:       mkMLR(120, predict.DefaultThreshold),
		ChangeDetection: detectOn,
	}
}

func robustExp(cfg Config) (*Result, error) {
	dur := cfg.dur(20 * time.Second)
	start := 2 * dur / 5 // anomaly onset at 40% of the run
	rest := dur - start
	basePPS := trace.CESCA2(cfg.Seed, dur, cfg.Scale).PacketsPerSec

	anomalies := []struct {
		name string
		mk   func() trace.Anomaly
	}{
		{"gradual-drift", func() trace.Anomaly {
			return trace.NewGradualDrift(start, rest, 1.5*basePPS)
		}},
		{"flash-crowd", func() trace.Anomaly {
			return trace.NewFlashCrowd(start, rest, 2*basePPS, pkt.IPv4(147, 83, 9, 9))
		}},
		{"topology-shift", func() trace.Anomaly {
			return trace.NewTopologyShift(start, rest, basePPS)
		}},
	}

	tab := Table{
		ID:    "robust",
		Title: "MLR accuracy under anomalies, change detector off vs on",
		Columns: []string{
			"anomaly", "detector", "pre err", "post err", "recovery bins", "verdicts",
		},
	}
	var fig Figure

	for _, sc := range anomalies {
		// Seed offset 30 puts the default run (Seed 1) on the exact
		// trace TestDriftDetectorRecovery pins.
		tc := trace.CESCA2(cfg.Seed+30, dur, cfg.Scale)
		tc.Anomalies = []trace.Anomaly{sc.mk()}
		g := trace.NewGenerator(tc)
		batches := trace.Record(g)
		bin := g.TimeBin()
		// Both runs replay the recorded batches; the systems run at
		// seed+1, cfg.Seed+90.
		s := newScenario(cfg, cfg.Seed+89, func() trace.Source { return trace.NewMemorySource(batches, bin) }, robustQs)
		startBin := int(start / bin)
		// The regime keeps moving through the anomaly's own ramp (a
		// quarter of its span, like GradualDrift's default); "post"
		// starts once it settles.
		settled := startBin + int(rest/4/bin)

		relErr := func(res *loadshed.RunResult) []float64 {
			e := make([]float64, len(res.Bins))
			for i, b := range res.Bins {
				used := math.Max(b.QueryUsed[0], 1)
				e[i] = math.Abs(b.QueryPred[0]-used) / used
			}
			return e
		}
		mean := func(e []float64, lo, hi int) float64 {
			if lo < 0 {
				lo = 0
			}
			if hi > len(e) {
				hi = len(e)
			}
			if lo >= hi {
				return math.NaN()
			}
			var s float64
			for _, v := range e[lo:hi] {
				s += v
			}
			return s / float64(hi-lo)
		}

		type outcome struct {
			err      []float64
			verdicts int
			early    int // verdicts before the anomaly's onset: false alarms
		}
		runs := map[bool]outcome{}
		for _, on := range []bool{false, true} {
			res := s.run(robustConfig(on))
			o := outcome{err: relErr(res)}
			for i, b := range res.Bins {
				if b.Change {
					o.verdicts++
					if i < startBin {
						o.early++
					}
				}
			}
			runs[on] = o
		}

		// Recovery, calibrated as in TestDriftDetectorRecovery: the
		// contamination level is the detector-off error through the
		// anomaly onset, and a run has recovered once its mean error
		// since the regime settled drops to half of that.
		contamination := mean(runs[false].err, startBin, settled+10)
		recovery := func(e []float64) int {
			for b := settled + 10; b < len(e); b++ {
				if mean(e, settled, b+1) <= contamination/2 {
					return b - startBin
				}
			}
			return len(e) - startBin
		}

		for _, on := range []bool{false, true} {
			o := runs[on]
			state := "off"
			if on {
				state = "on"
			}
			// Recovery time is only meaningful when the anomaly
			// actually contaminated the model; a mild one (error never
			// left the baseline's neighbourhood) has nothing to
			// recover from.
			rec := "mild"
			verdicts := fmt.Sprintf("%d", o.verdicts)
			if o.early > 0 {
				verdicts += fmt.Sprintf(" (%d early)", o.early)
			}
			pre := mean(o.err, startBin/2, startBin)
			if contamination > 3*mean(runs[false].err, startBin/2, startBin) {
				rec = fmt.Sprintf("%d", recovery(o.err))
			}
			tab.Rows = append(tab.Rows, []string{
				sc.name, state,
				fmtPct(pre),
				fmtPct(mean(o.err, settled, len(o.err))),
				rec,
				verdicts,
			})
		}

		if sc.name == "gradual-drift" {
			fig = Figure{
				ID:     "robust-drift",
				Title:  "Prediction error through a gradual drift, detector off vs on",
				XLabel: "time (s)",
				YLabel: "relative prediction error",
			}
			for _, on := range []bool{false, true} {
				name := "detector off"
				if on {
					name = "detector on"
				}
				s := Series{Name: name}
				for i, v := range runs[on].err {
					s.X = append(s.X, float64(i)*bin.Seconds())
					s.Y = append(s.Y, v)
				}
				fig.Series = append(fig.Series, s)
			}
		}
	}

	return &Result{Tables: []Table{tab}, Figures: []Figure{fig}, Notes: []string{
		"gradual-drift is collinear with the base traffic in feature space: recovery is history-bound",
		"expected shape: detector-on recovers at least 2x faster on the drift (pinned by TestDriftDetectorRecovery)",
	}}, nil
}
