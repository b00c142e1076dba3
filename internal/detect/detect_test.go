package detect

import (
	"math"
	"testing"

	"repro/internal/hash"
)

// noisy returns a deterministic noise stream around mean m.
func noisyStream(rng *hash.XorShift, m, sigma float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m + sigma*rng.NormFloat64()
	}
	return out
}

func TestPageHinkleyDetectsLevelShift(t *testing.T) {
	rng := hash.NewXorShift(1)
	ph := pageHinkley{Delta: 0.02, Lambda: 0.6}
	for i, x := range noisyStream(rng, 0, 0.05, 400) {
		if fired, _ := ph.Observe(x); fired {
			t.Fatalf("false alarm on stationary stream at sample %d", i)
		}
	}
	firedAt := -1
	for i, x := range noisyStream(rng, 0.3, 0.05, 100) {
		if fired, _ := ph.Observe(x); fired {
			firedAt = i
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("missed a 0.3 level shift after 100 samples")
	}
	if firedAt > 30 {
		t.Fatalf("took %d samples to notice the shift, want <= 30", firedAt)
	}
}

func TestCUSUMDetectsAndReArms(t *testing.T) {
	rng := hash.NewXorShift(2)
	c := cusumTest{Delta: 0.02, Lambda: 0.6}
	for i, x := range noisyStream(rng, 1.0, 0.05, 400) {
		if fired, _ := c.Observe(x); fired {
			t.Fatalf("false alarm on stationary stream at sample %d", i)
		}
	}
	fired := false
	for _, x := range noisyStream(rng, 0.6, 0.05, 100) {
		if f, _ := c.Observe(x); f {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("missed a downward level shift")
	}
	// After a reset at the new level, the adapting baseline re-arms:
	// the new level is not forever anomalous.
	c.Reset()
	for i, x := range noisyStream(rng, 0.6, 0.05, 200) {
		if f, _ := c.Observe(x); f {
			t.Fatalf("false alarm at the new level after reset, sample %d", i)
		}
	}
}

func TestDistDetectorDetectsFeatureShift(t *testing.T) {
	const nf = 8
	rng := hash.NewXorShift(3)
	d := newDistDetector(24, 4, nf)
	f := make([]float64, nf)
	emit := func(scale float64) (bool, float64) {
		for j := range f {
			f[j] = scale*float64(j+1) + 0.1*rng.NormFloat64()
		}
		return d.Observe(f)
	}
	for i := 0; i < 300; i++ {
		if fired, _ := emit(1.0); fired {
			t.Fatalf("false alarm on stationary features at bin %d", i)
		}
	}
	firedAt := -1
	for i := 0; i < 100; i++ {
		if fired, _ := emit(3.0); fired {
			firedAt = i
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("missed a 3x feature scale shift")
	}
	if firedAt > 48 {
		t.Fatalf("took %d bins to notice the shift, want within two windows", firedAt)
	}
}

func TestDetectorVerdictAndCooldown(t *testing.T) {
	const nf = 4
	rng := hash.NewXorShift(4)
	d := New(Config{Cooldown: 10}, nf)
	f := make([]float64, nf)
	obs := func(m float64) Verdict {
		for j := range f {
			f[j] = 1 + 0.05*rng.NormFloat64()
		}
		return d.Observe(f, m+0.03*rng.NormFloat64())
	}
	for i := 0; i < 200; i++ {
		if v := obs(0); v.Change {
			t.Fatalf("false alarm at bin %d (score %.3f)", i, v.Score)
		}
	}
	firedAt := -1
	for i := 0; i < 100; i++ {
		if v := obs(0.5); v.Change {
			firedAt = i
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("missed a residual bias")
	}
	if d.changes != 1 {
		t.Fatalf("Changes() = %d, want 1", d.changes)
	}
	// Cooldown: the next Cooldown bins stay silent even under bias.
	for i := 0; i < 10; i++ {
		if v := obs(0.5); v.Change {
			t.Fatalf("verdict during cooldown at bin %d", i)
		}
	}
}

func TestDetectorInfThresholdsNeverFire(t *testing.T) {
	const nf = 4
	d := New(Config{
		ResidualLambda: math.Inf(1),
		DistThreshold:  math.Inf(1),
	}, nf)
	f := make([]float64, nf)
	for i := 0; i < 500; i++ {
		m := 0.0
		if i > 250 {
			m = 10 // violent shift; Inf thresholds must still hold
		}
		for j := range f {
			f[j] = m + float64(j)
		}
		if v := d.Observe(f, m); v.Change {
			t.Fatalf("Inf-threshold detector fired at bin %d", i)
		}
	}
	if d.changes != 0 {
		t.Fatalf("Changes() = %d, want 0", d.changes)
	}
}

func TestDetectorStateRoundTrip(t *testing.T) {
	const nf = 6
	mk := func() (*Detector, *hash.XorShift) {
		return New(Config{}, nf), hash.NewXorShift(6)
	}
	a, rngA := mk()
	f := make([]float64, nf)
	feed := func(d *Detector, rng *hash.XorShift, n int, m float64) []Verdict {
		out := make([]Verdict, 0, n)
		for i := 0; i < n; i++ {
			for j := range f {
				f[j] = m + 0.1*rng.NormFloat64()
			}
			out = append(out, d.Observe(f, 0.01*rng.NormFloat64()+m/10))
		}
		return out
	}
	feed(a, rngA, 137, 1.0)

	// Snapshot a, install into a fresh detector, then drive both with
	// identical tails (including a shift) and require identical verdicts.
	st := a.State()
	b, _ := mk()
	if err := b.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	rngB := hash.NewXorShift(0)
	rngB.SetState(rngA.State())
	va := feed(a, rngA, 200, 2.5)
	vb := feed(b, rngB, 200, 2.5)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("verdict %d diverged after restore: %+v vs %+v", i, va[i], vb[i])
		}
	}
	if a.changes != b.changes || a.lastBin != b.lastBin {
		t.Fatalf("counters diverged: (%d,%d) vs (%d,%d)", a.changes, a.lastBin, b.changes, b.lastBin)
	}

	c, _ := mk()
	bad := a.State()
	bad.RefSum = bad.RefSum[:nf-1]
	if err := c.SetState(bad); err == nil {
		t.Fatal("SetState accepted a feature-count mismatch")
	}
}

func TestObserveAllocationFree(t *testing.T) {
	const nf = 42
	rng := hash.NewXorShift(7)
	d := New(Config{}, nf)
	f := make([]float64, nf)
	for i := 0; i < 100; i++ { // warm up past both windows
		for j := range f {
			f[j] = 1 + 0.1*rng.NormFloat64()
		}
		d.Observe(f, 0.01*rng.NormFloat64())
	}
	allocs := testing.AllocsPerRun(200, func() {
		d.Observe(f, 0.001)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op in steady state, want 0", allocs)
	}
}
