// Drift robustness: what happens to predictive load shedding when the
// traffic mix changes under the model. A gradual drift joins the trace
// mid-run, built to mimic the base traffic's address pools, port mix
// and packet sizes while carrying no payload — collinear with the base
// in feature space, so the regression cannot isolate it with one
// coefficient, and the bytes→cost relation it learned is silently
// wrong. With plain history forgetting the stale regime poisons the
// fit for a full history window; with the online change detector
// (Config.ChangeDetection) a verdict truncates the stale history and
// the model refits on the new regime within a few dozen bins.
package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/predict"
	"repro/pkg/loadshed"
)

func main() {
	const (
		dur        = 20 * time.Second
		driftStart = 8 * time.Second
	)

	mkSrc := func() loadshed.Source {
		cfg := loadshed.CESCA2(31, dur, 0.2)
		cfg.Anomalies = []loadshed.Anomaly{
			// Ramp up over the first quarter of its span to 1.5x the
			// base packet rate, all of it payload-free.
			loadshed.NewGradualDrift(driftStart, dur-driftStart, 1.5*cfg.PacketsPerSec),
		}
		return loadshed.NewGenerator(cfg)
	}
	mkQs := func() []loadshed.Query {
		var qs []loadshed.Query
		// pattern-search is the victim: its cost is linear in payload
		// bytes, which the drift decouples from the header features.
		for _, kind := range []string{"pattern-search", "counter", "flows"} {
			q, err := loadshed.QueryByName(kind, loadshed.QueryConfig{Seed: 7})
			if err != nil {
				panic(err)
			}
			qs = append(qs, q)
		}
		return qs
	}

	run := func(detectOn bool) *loadshed.RunResult {
		return loadshed.New(loadshed.Config{
			Scheme:   loadshed.Predictive,
			Strategy: loadshed.MMFSPkt(),
			Seed:     99,
			// Unlimited capacity and no measurement noise: per-bin
			// prediction error is exactly model error.
			Capacity:   math.Inf(1),
			NoiseSigma: -1,
			Workers:    1,
			// A long fitting window makes the stale regime's hold visible.
			Predictor:       func() predict.Predictor { return predict.NewMLR(120, predict.DefaultThreshold) },
			ChangeDetection: detectOn,
		}, mkQs()).Run(mkSrc())
	}

	errAt := func(res *loadshed.RunResult, lo, hi int) float64 {
		var s float64
		for _, b := range res.Bins[lo:hi] {
			used := math.Max(b.QueryUsed[0], 1)
			s += math.Abs(b.QueryPred[0]-used) / used
		}
		return s / float64(hi-lo)
	}

	off := run(false)
	on := run(true)
	startBin := int(driftStart / (100 * time.Millisecond))
	rampEnd := startBin + int((dur-driftStart)/4/(100*time.Millisecond))
	n := len(on.Bins)

	fmt.Printf("pattern-search prediction error (drift enters at bin %d, settles at bin %d):\n\n", startBin, rampEnd)
	fmt.Printf("%-22s %12s %12s\n", "phase", "detector off", "detector on")
	for _, ph := range []struct {
		name   string
		lo, hi int
	}{
		{"before the drift", startBin / 2, startBin},
		{"through the ramp", startBin, rampEnd},
		{"first 40 bins after", rampEnd, rampEnd + 40},
		{"rest of the run", rampEnd + 40, n},
	} {
		fmt.Printf("%-22s %11.1f%% %11.1f%%\n",
			ph.name, 100*errAt(off, ph.lo, ph.hi), 100*errAt(on, ph.lo, ph.hi))
	}

	fmt.Println()
	for i, b := range on.Bins {
		if b.Change {
			fmt.Printf("change verdict at bin %d (score %.2f): stale history truncated, model refits\n", i, b.ChangeScore)
		}
	}
	fmt.Println("\nexpected shape: the same error until the drift (a verdict before it is the")
	fmt.Println("distance test's false alarm on this seed's stationary traffic, and costs the")
	fmt.Println("fit next to nothing); then the detector-off run carries the stale regime for a")
	fmt.Println("full history window while the detector-on run recovers within a few dozen bins")
	fmt.Println("of its first verdict on the drift (>= 2x faster, pinned by")
	fmt.Println("TestDriftDetectorRecovery; the 'robust' experiment reports the full catalog).")
}
