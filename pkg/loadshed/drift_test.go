package loadshed

// drift_test.go pins the drift-robustness contract of the change
// detector (Config.ChangeDetection):
//
//   - under an injected gradual traffic drift, a detector-enabled
//     system recovers its MLR prediction accuracy at least twice as
//     fast (in bins) as the detector-off baseline;
//   - with ChangeDetection off the detect stage is a no-op, and even
//     enabled-but-never-firing detection perturbs no engine output;
//   - Snapshot/Restore carries the detector and truncated-history
//     state, so a system interrupted mid-drift resumes bit-identically.

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/trace"
)

// encodeDecode round-trips a snapshot through its gob encoding.
func encodeDecode(t *testing.T, snap *SystemSnapshot) *SystemSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return decoded
}

// driftQueries builds the query set the drift tests run. PatternSearch
// is the drift victim: its cost is linear in payload bytes, and the
// injected drift is header-heavy (large packets, no payload), which
// silently breaks the bytes→cost relation the MLR learned.
func driftQueries() []queries.Query {
	return []queries.Query{
		queries.NewPatternSearch(queries.Config{Seed: 7}, nil),
		queries.NewCounter(queries.Config{Seed: 7}),
		queries.NewFlows(queries.Config{Seed: 7}),
	}
}

// driftConfig is the shared engine config: predictive scheme, unlimited
// capacity and no measurement noise, so per-bin prediction error is
// exactly model error. The detector runs as deployed: package-default
// thresholds, truncation on a verdict.
func driftConfig(detectOn bool) Config {
	return Config{
		Scheme:     Predictive,
		Strategy:   MMFSPkt(),
		Seed:       99,
		Capacity:   math.Inf(1),
		NoiseSigma: -1,
		Workers:    1,
		// A long fitting window makes stale-history contamination visible.
		Predictor:       func() predict.Predictor { return predict.NewMLR(120, predict.DefaultThreshold) },
		ChangeDetection: detectOn,
	}
}

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
	g := trace.NewGenerator(tc)
	batches := trace.Record(g)
	bin := g.TimeBin()
	startBin := int(driftStart / bin)
	rampEnd := startBin + int((dur-driftStart)/4/bin) // NewGradualDrift ramps over a quarter of its duration

	run := func(detectOn bool) *RunResult {
		return New(driftConfig(detectOn), driftQueries()).Run(trace.NewMemorySource(batches, bin))
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

// TestChangeDetectionOffBitIdentical pins the disabled-path contract
// from two sides: with ChangeDetection off no bin carries change state
// (the stage is a nil-check no-op, so the run is the exact HEAD code
// path), and an enabled detector that never fires (+Inf thresholds,
// planted on the system directly: the engine has no threshold option)
// leaves every engine output bit-identical to the disabled run — the
// observe path reads engine state but writes none back.
func TestChangeDetectionOffBitIdentical(t *testing.T) {
	const dur = 8 * time.Second
	tc := trace.CESCA2(17, dur, 0.2)
	tc.Anomalies = []trace.Anomaly{trace.NewGradualDrift(4*time.Second, 4*time.Second, 8000)}
	g := trace.NewGenerator(tc)
	batches := trace.Record(g)
	bin := g.TimeBin()
	capacity := MeasureCapacity(trace.NewMemorySource(batches, bin), driftQueries(), 77) * 0.7

	run := func(detectOn bool) *RunResult {
		cfg := driftConfig(detectOn)
		cfg.Capacity = capacity // finite: exercise the shedding path too
		s := New(cfg, driftQueries())
		if detectOn {
			s.det = detect.New(detect.Config{
				ResidualLambda: math.Inf(1),
				DistThreshold:  math.Inf(1),
			}, features.NumFeatures)
		}
		return s.Run(trace.NewMemorySource(batches, bin))
	}

	off := run(false)
	on := run(true)

	if len(off.Bins) != len(on.Bins) {
		t.Fatalf("bin counts differ: %d vs %d", len(off.Bins), len(on.Bins))
	}
	for i := range off.Bins {
		if off.Bins[i].Change || off.Bins[i].ChangeScore != 0 {
			t.Fatalf("bin %d: detector-off run carries change state", i)
		}
		got := on.Bins[i]
		if got.Change {
			t.Fatalf("bin %d: +Inf thresholds fired", i)
		}
		got.ChangeScore = off.Bins[i].ChangeScore // the only field allowed to differ
		if !reflect.DeepEqual(got, off.Bins[i]) {
			t.Fatalf("bin %d diverged:\n got %+v\nwant %+v", i, got, off.Bins[i])
		}
	}
	if !reflect.DeepEqual(off.Intervals, on.Intervals) {
		t.Fatal("interval results diverged between detector-off and never-firing detector")
	}
}

// TestSnapshotCarriesDetectorState interrupts a drift run after the
// detector has fired, round-trips the snapshot through encode/decode,
// and requires the resumed run to match the uninterrupted one bit for
// bit — which only holds if the detector's rings/sums and the
// truncated history ring both travel. It also pins the
// presence-mismatch refusals both ways.
func TestSnapshotCarriesDetectorState(t *testing.T) {
	const (
		dur        = 14 * time.Second
		driftStart = 6 * time.Second
	)
	tc := trace.CESCA2(43, dur, 0.2)
	tc.Anomalies = []trace.Anomaly{trace.NewGradualDrift(driftStart, dur-driftStart, 8000)}
	g := trace.NewGenerator(tc)
	batches := trace.Record(g)
	bin := g.TimeBin()
	perInterval := int(time.Second / bin)
	cut := 9 * perInterval // interval boundary mid-drift

	mkSys := func(detectOn bool) *System {
		return New(driftConfig(detectOn), driftQueries())
	}

	ref := mkSys(true).Run(trace.NewMemorySource(batches, bin))
	firedBefore := false
	for _, b := range ref.Bins[:cut] {
		if b.Change {
			firedBefore = true
			break
		}
	}
	if !firedBefore {
		t.Fatal("scenario too tame: no change verdict before the cut, snapshot would carry a cold detector")
	}

	s1 := mkSys(true)
	r1 := s1.Run(trace.NewMemorySource(batches[:cut], bin))
	snap, err := s1.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.Detect == nil {
		t.Fatal("snapshot of a detector-enabled system carries no detector state")
	}
	roundTrip := encodeDecode(t, snap)

	// Presence mismatch refusals, both directions.
	if err := mkSys(false).Restore(roundTrip); err == nil {
		t.Fatal("restoring a detector snapshot into a detector-off system must fail")
	}
	offSnap, err := mkSys(false).Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := mkSys(true).Restore(offSnap); err == nil {
		t.Fatal("restoring a detector-less snapshot into a detector-on system must fail")
	}

	s2 := mkSys(true)
	if err := s2.Restore(roundTrip); err != nil {
		t.Fatalf("restore: %v", err)
	}
	r2 := s2.Run(trace.NewMemorySource(batches[cut:], bin))

	if got, want := len(r1.Bins)+len(r2.Bins), len(ref.Bins); got != want {
		t.Fatalf("split runs produced %d bins, uninterrupted %d", got, want)
	}
	for i := range r1.Bins {
		if !reflect.DeepEqual(r1.Bins[i], ref.Bins[i]) {
			t.Fatalf("pre-snapshot bin %d diverged:\n got %+v\nwant %+v", i, r1.Bins[i], ref.Bins[i])
		}
	}
	for i := range r2.Bins {
		if !reflect.DeepEqual(r2.Bins[i], ref.Bins[len(r1.Bins)+i]) {
			t.Fatalf("resumed bin %d diverged from uninterrupted bin %d:\n got %+v\nwant %+v",
				i, len(r1.Bins)+i, r2.Bins[i], ref.Bins[len(r1.Bins)+i])
		}
	}
	for i := range r2.Intervals {
		got := r2.Intervals[i]
		want := ref.Intervals[len(r1.Intervals)+i]
		got.Index = want.Index // numbering restarts; content must not
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed interval %d diverged from uninterrupted interval %d", i, want.Index)
		}
	}
}
