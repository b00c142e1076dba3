package loadshed

// drift_test.go pins the drift-robustness contract of the change
// detector (Config.ChangeDetection): under an injected gradual traffic
// drift, a detector-enabled system recovers its MLR prediction accuracy
// at least twice as fast (in bins) as the detector-off baseline. That
// the detector, off or never firing, moves no engine output, and that a
// snapshot carries it mid-drift, are cells of TestConformance.

import (
	"math"
	"testing"
	"time"

	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/trace"
)

// TestDriftDetectorRecovery injects a gradual drift into a payload
// trace and compares how many bins the MLR needs — with and without the
// detector — to shake off the stale regime. The drift mimics the base
// traffic's address pools, port mix and size distribution but carries
// no payload, so it is collinear with the base in feature space and
// breaks the bytes→cost relation the model learned; the broken regime
// also has an intrinsically higher noise floor (drift bytes fluctuate
// with zero cost), so "recovered" is calibrated against the damage, not
// the pre-drift error: a run has recovered once its mean error since
// the end of the ramp stays at half the error level the detector-off
// run sustained through the drift onset. The detector truncates the
// stale history on its change verdict, so the enabled run recovers
// while the disabled run carries the contamination for a full history
// window; the test requires at least a 2x speedup in bins.
func TestDriftDetectorRecovery(t *testing.T) {
	const (
		dur        = 20 * time.Second
		driftStart = 8 * time.Second
		driftPPS   = 8000
	)
	tc := trace.CESCA2(31, dur, 0.2)
	tc.Anomalies = []trace.Anomaly{trace.NewGradualDrift(driftStart, dur-driftStart, driftPPS)}
	rec := record(trace.NewGenerator(tc))
	startBin := int(driftStart / rec.bin)
	rampEnd := startBin + int((dur-driftStart)/4/rec.bin) // NewGradualDrift ramps over a quarter of its duration

	// Predictive at unlimited capacity and without measurement noise, so
	// per-bin prediction error is exactly model error; a long fitting
	// window makes stale-history contamination visible, and the detector
	// runs as deployed (package-default thresholds, truncation on a
	// verdict). PatternSearch is the drift victim: its cost is linear in
	// payload bytes, and the header-heavy drift (large packets, no
	// payload) silently breaks the bytes→cost relation the MLR learned.
	run := func(detectOn bool) *RunResult {
		return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: math.Inf(1), NoiseSigma: -1, Workers: 1,
			Predictor:       func() predict.Predictor { return predict.NewMLR(120, predict.DefaultThreshold) },
			ChangeDetection: detectOn,
		}, []queries.Query{
			queries.NewPatternSearch(queries.Config{Seed: 7}, nil),
			queries.NewCounter(queries.Config{Seed: 7}),
			queries.NewFlows(queries.Config{Seed: 7}),
		}).Run(rec.src())
	}

	// Per-bin relative prediction error of the pattern-search query.
	relErr := func(res *RunResult) []float64 {
		e := make([]float64, len(res.Bins))
		for i, b := range res.Bins {
			used := b.QueryUsed[0]
			if used < 1 {
				used = 1
			}
			e[i] = math.Abs(b.QueryPred[0]-used) / used
		}
		return e
	}
	mean := func(e []float64, lo, hi int) float64 {
		var s float64
		for _, v := range e[lo:hi] {
			s += v
		}
		return s / float64(hi-lo)
	}
	on := run(true)
	off := run(false)
	eOn, eOff := relErr(on), relErr(off)
	baseOff := mean(eOff, startBin/2, startBin)

	// The contamination level: what the detector-off run suffers from
	// drift onset through the end of the ramp. The scenario must
	// actually hurt — well above the pre-drift baseline — or recovery
	// speed means nothing.
	contamination := mean(eOff, startBin, rampEnd+10)
	if contamination < 5*baseOff {
		t.Fatalf("drift too mild to test recovery: contaminated err %.3f vs baseline %.3f", contamination, baseOff)
	}

	// recoveryBins: how many bins after drift onset the running mean
	// error since the end of the ramp (the regime keeps moving until
	// then) first drops to half the contamination level. At least 10
	// bins must have accumulated, so single quiet bins cannot fake a
	// recovery; a run that never recovers scores the full span.
	recoveryBins := func(e []float64) int {
		for b := rampEnd + 10; b < len(e); b++ {
			if mean(e, rampEnd, b+1) <= contamination/2 {
				return b - startBin
			}
		}
		return len(e) - startBin
	}

	// The detector must fire near the drift. At the package-default
	// thresholds the distance test also raises one alarm on this seed's
	// stationary traffic (bin 64; 2 of the 12 seeds in DESIGN.md
	// section 3 have one): tolerated, as long as it stays a single one
	// and truncating on it costs the pre-drift fit next to nothing.
	fired, falseAlarms := 0, 0
	firstFire := -1
	for i, b := range on.Bins {
		if !b.Change {
			continue
		}
		fired++
		if i < startBin {
			falseAlarms++
		} else if firstFire < 0 {
			firstFire = i
		}
	}
	if firstFire < 0 || firstFire > rampEnd+20 {
		t.Fatalf("first change verdict on the drift at bin %d, want within [%d, %d]", firstFire, startBin, rampEnd+20)
	}
	if baseOn := mean(eOn, startBin/2, startBin); falseAlarms > 1 || baseOn > 1.25*baseOff {
		t.Fatalf("%d verdicts before the drift, pre-drift err %.4f with the detector vs %.4f without", falseAlarms, baseOn, baseOff)
	}
	for _, b := range off.Bins {
		if b.Change || b.ChangeScore != 0 {
			t.Fatal("detector-off run reports change state")
		}
	}

	recOn := recoveryBins(eOn)
	recOff := recoveryBins(eOff)
	if recOn >= len(eOn)-startBin {
		t.Fatalf("detector-on run never recovered (contamination %.4f, post-ramp err %.4f)",
			contamination, mean(eOn, rampEnd, len(eOn)))
	}
	if recOff < 2*recOn {
		t.Fatalf("recovery speedup < 2x: detector-on %d bins, detector-off %d bins", recOn, recOff)
	}
	t.Logf("recovery: on=%d bins, off=%d bins (%.1fx), %d change verdicts (%d before the drift), first on the drift at bin %d",
		recOn, recOff, float64(recOff)/float64(recOn), fired, falseAlarms, firstFire)
}
