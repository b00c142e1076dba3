// Package detect implements online change detection over the per-bin
// signals the engine already produces: the extracted feature vector
// (features.Extractor) and the prediction residual (how far the MLR
// model's cost estimate landed from the cost actually observed).
//
// Two detector families run side by side, covering the two ways a
// traffic regime change manifests:
//
//   - Sequential tests over the residual stream (Page–Hinkley and
//     CUSUM). A drift in the feature→cost relationship shows up as a
//     persistent bias in the residuals long before the per-bin error
//     is individually alarming; PH/CUSUM accumulate that bias and fire
//     when the accumulated deviation from the running mean exceeds a
//     threshold. This catches changes the model *feels*.
//
//   - A windowed distribution-distance test over the feature vectors,
//     in the style of Rzepka & Chołda's flow-network change metrics:
//     two adjacent sliding windows (reference vs current), with the
//     distance defined as the mean standardized shift of each feature's
//     window mean. This catches changes the model might *mask* —
//     e.g. a topology shift the regression happens to absorb — because
//     it looks at the input distribution directly.
//
// Everything here follows the PR 4–5 allocation discipline: all rings
// and scratch are sized at construction, and Observe is allocation-free
// in steady state (guarded by an AllocsPerRun test).
package detect

import "math"

// Config carries the detector thresholds. The zero value of any field
// selects the default written next to it; to disable one side entirely,
// set its threshold to math.Inf(1).
type Config struct {
	// ResidualDelta is the magnitude of residual bias (in residual
	// units) that PH/CUSUM tolerate before accumulating. Default 0.02.
	ResidualDelta float64
	// ResidualLambda is the accumulated-deviation threshold at which
	// the sequential tests fire. Default 0.6.
	ResidualLambda float64
	// Window is the per-side length (in bins) of the reference and
	// current feature windows. Default 24.
	Window int
	// DistThreshold is the mean standardized feature shift (z-score
	// units) at which the distribution test fires. Default 4.
	DistThreshold float64
	// Cooldown is the number of bins after a verdict during which the
	// detector stays silent while the model refits. Default 16.
	Cooldown int
	// Warmup is the number of bins observed before the sequential
	// tests arm (the first residuals come from an unfitted model and
	// are not evidence of change). Default 12.
	Warmup int
}

func (c Config) withDefaults() Config {
	if c.ResidualDelta == 0 {
		c.ResidualDelta = 0.02
	}
	if c.ResidualLambda == 0 {
		c.ResidualLambda = 0.6
	}
	if c.Window == 0 {
		c.Window = 24
	}
	if c.DistThreshold == 0 {
		c.DistThreshold = 4
	}
	if c.Cooldown == 0 {
		c.Cooldown = 16
	}
	if c.Warmup == 0 {
		c.Warmup = 12
	}
	return c
}

// Verdict is the outcome of one Observe call.
type Verdict struct {
	Change bool    // a change fired this bin
	Score  float64 // max of the sub-detector scores, 1.0 = threshold
}

// pageHinkley is the classic two-sided Page–Hinkley test over a scalar
// stream: it tracks the incremental running mean and the cumulative
// deviation from it, and fires when the deviation drifts more than
// Lambda away from its historical extremum in either direction.
type pageHinkley struct {
	Delta  float64
	Lambda float64

	n    int64
	mean float64
	mUp  float64 // cumulative (x - mean - delta)
	mDn  float64 // cumulative (x - mean + delta)
	minU float64 // running min of mUp (upward drift raises mUp above it)
	maxD float64 // running max of mDn (downward drift sinks mDn below it)
}

// Reset clears all accumulated state.
func (p *pageHinkley) Reset() {
	p.n, p.mean = 0, 0
	p.mUp, p.mDn, p.minU, p.maxD = 0, 0, 0, 0
}

// Observe feeds one sample and reports whether the test fires, plus the
// test statistic normalized so that 1.0 is the firing threshold.
func (p *pageHinkley) Observe(x float64) (bool, float64) {
	p.n++
	p.mean += (x - p.mean) / float64(p.n)
	p.mUp += x - p.mean - p.Delta
	p.mDn += x - p.mean + p.Delta
	if p.mUp < p.minU {
		p.minU = p.mUp
	}
	if p.mDn > p.maxD {
		p.maxD = p.mDn
	}
	stat := p.mUp - p.minU
	if d := p.maxD - p.mDn; d > stat {
		stat = d
	}
	return stat > p.Lambda, stat / p.Lambda
}

// cusumTest is a two-sided cumulative-sum test against a slowly adapting
// EWMA baseline: one-sided sums accumulate deviations beyond Delta and
// clamp at zero, firing when either exceeds Lambda. Compared to
// Page–Hinkley its baseline forgets, so it re-arms after a sustained
// level shift instead of treating the new level as forever anomalous.
type cusumTest struct {
	Delta  float64
	Lambda float64
	Alpha  float64 // baseline EWMA weight, default 0.05

	seeded bool
	base   float64
	sUp    float64
	sDn    float64
}

// Reset clears accumulated state including the baseline.
func (c *cusumTest) Reset() {
	c.seeded, c.base, c.sUp, c.sDn = false, 0, 0, 0
}

// Observe feeds one sample; same contract as pageHinkley.Observe.
func (c *cusumTest) Observe(x float64) (bool, float64) {
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	if !c.seeded {
		c.seeded, c.base = true, x
		return false, 0
	}
	c.sUp = math.Max(0, c.sUp+x-c.base-c.Delta)
	c.sDn = math.Max(0, c.sDn+c.base-x-c.Delta)
	c.base += alpha * (x - c.base)
	stat := math.Max(c.sUp, c.sDn)
	return stat > c.Lambda, stat / c.Lambda
}

// distDetector compares the feature distribution of the last Window
// bins against the Window bins before them. Per-feature running sums
// and sums of squares for both windows are maintained incrementally as
// samples slide from the current window into the reference window and
// out, so each Observe is O(features) with no allocation. The distance
// is the mean over features of |mean_cur - mean_ref| / (sigma_ref + eps)
// with eps scaled to the reference mean's magnitude, which keeps
// near-constant features from dividing by ~zero.
type distDetector struct {
	Window    int
	Threshold float64

	nf   int
	ring []float64 // 2*Window flattened vectors, oldest-first circular
	head int       // next slot to overwrite
	n    int       // samples currently held, caps at 2*Window

	refSum, refSq []float64 // sums over the older Window samples
	curSum, curSq []float64 // sums over the newer Window samples
}

// newDistDetector sizes a detector for feature vectors of length nf.
func newDistDetector(window int, threshold float64, nf int) *distDetector {
	return &distDetector{
		Window:    window,
		Threshold: threshold,
		nf:        nf,
		ring:      make([]float64, 2*window*nf),
		refSum:    make([]float64, nf),
		refSq:     make([]float64, nf),
		curSum:    make([]float64, nf),
		curSq:     make([]float64, nf),
	}
}

// Reset empties both windows.
func (d *distDetector) Reset() {
	d.head, d.n = 0, 0
	for i := range d.refSum {
		d.refSum[i], d.refSq[i] = 0, 0
		d.curSum[i], d.curSq[i] = 0, 0
	}
}

// slot returns the flattened ring slice for logical index i back from
// the newest sample (i=0 is the newest).
func (d *distDetector) slot(back int) []float64 {
	idx := (d.head - 1 - back + 4*d.Window) % (2 * d.Window)
	return d.ring[idx*d.nf : (idx+1)*d.nf]
}

// Observe feeds one feature vector (len nf); same contract as
// pageHinkley.Observe. The test is silent until both windows are full.
func (d *distDetector) Observe(f []float64) (bool, float64) {
	w := d.Window
	// Retire: the sample leaving the current window (if full) moves to
	// the reference window; the sample leaving the reference window
	// (if full) leaves entirely.
	if d.n >= 2*w {
		old := d.slot(2*w - 1)
		for i, v := range old {
			d.refSum[i] -= v
			d.refSq[i] -= v * v
		}
	}
	if d.n >= w {
		mid := d.slot(w - 1)
		for i, v := range mid {
			d.curSum[i] -= v
			d.curSq[i] -= v * v
			d.refSum[i] += v
			d.refSq[i] += v * v
		}
	}
	// Admit the new sample into the current window.
	dst := d.ring[d.head*d.nf : (d.head+1)*d.nf]
	copy(dst, f)
	d.head = (d.head + 1) % (2 * w)
	if d.n < 2*w {
		d.n++
	}
	for i, v := range f {
		d.curSum[i] += v
		d.curSq[i] += v * v
	}
	if d.n < 2*w {
		return false, 0
	}
	// Mean standardized shift across features.
	fw := float64(w)
	sum := 0.0
	for i := 0; i < d.nf; i++ {
		mr := d.refSum[i] / fw
		mc := d.curSum[i] / fw
		varr := d.refSq[i]/fw - mr*mr
		if varr < 0 {
			varr = 0
		}
		eps := 1e-9 + 0.02*math.Abs(mr)
		sum += math.Abs(mc-mr) / (math.Sqrt(varr) + eps)
	}
	dist := sum / float64(d.nf)
	return dist > d.Threshold, dist / d.Threshold
}

// Detector combines the sequential residual tests with the feature
// distribution test under a shared cooldown, producing one Verdict per
// bin for the engine to act on.
type Detector struct {
	cfg   Config
	ph    pageHinkley
	cusum cusumTest
	dist  *distDetector

	bins    int64 // bins observed since construction/restore
	cool    int   // bins of silence remaining after a verdict
	changes int64 // total verdicts fired
	lastBin int64 // bin index of the last verdict, -1 if none
}

// New builds a detector for feature vectors of length nf. The zero
// Config selects the documented defaults.
func New(cfg Config, nf int) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:     cfg,
		ph:      pageHinkley{Delta: cfg.ResidualDelta, Lambda: cfg.ResidualLambda},
		cusum:   cusumTest{Delta: cfg.ResidualDelta, Lambda: cfg.ResidualLambda},
		dist:    newDistDetector(cfg.Window, cfg.DistThreshold, nf),
		lastBin: -1,
	}
}

// Observe feeds one bin's feature vector and prediction residual and
// returns the combined verdict. On a change verdict the sequential
// tests reset and both feature windows clear, so the post-change regime
// becomes the new baseline; a cooldown then suppresses further verdicts
// while the predictor refits.
func (d *Detector) Observe(f []float64, residual float64) Verdict {
	d.bins++
	warm := d.bins > int64(d.cfg.Warmup)
	var v Verdict
	if warm {
		fired, score := d.ph.Observe(residual)
		if score > v.Score {
			v.Score = score
		}
		v.Change = fired
		fired, score = d.cusum.Observe(residual)
		if score > v.Score {
			v.Score = score
		}
		v.Change = v.Change || fired
	}
	fired, score := d.dist.Observe(f)
	if score > v.Score {
		v.Score = score
	}
	v.Change = v.Change || fired
	if d.cool > 0 {
		d.cool--
		v.Change = false
		return v
	}
	if v.Change {
		d.changes++
		d.lastBin = d.bins - 1
		d.cool = d.cfg.Cooldown
		d.ph.Reset()
		d.cusum.Reset()
		d.dist.Reset()
	}
	return v
}
