package loadshed

// fault.go — deterministic fault injection for the coordination link.
//
// FaultTransport wraps any NodeTransport and perturbs the message flow
// the way a lossy network would: reports get dropped, held back a few
// bins, or duplicated; grant reads come up empty as if the frame never
// arrived. Faults are drawn from a seeded generator, so a given seed
// produces the same fault schedule on every run — the robustness suite
// leans on that to make its partition scenarios reproducible.
//
// The wrapper exists to pin the coordination layer's failure contract:
// coordination is advisory, never load-bearing (NodeTransport doc), so
// a node behind an arbitrarily lossy link must degrade to local-only
// shedding and keep producing the exact bins it would produce with no
// transport at all. TestConformance's grant-loss row and
// TestCoordinatorLeaseLivenessUnderReportLoss hold it to that.

import (
	"sync"

	"repro/internal/hash"
)

// FaultConfig sets per-message fault probabilities, each in [0, 1].
// Fates are drawn in the order drop, delay, duplicate — a report is
// subject to at most one fault. The zero value injects nothing.
type FaultConfig struct {
	Seed uint64 // fault-schedule seed; same seed, same schedule

	ReportDrop  float64 // report vanishes
	ReportDelay float64 // report held back 1..MaxDelay Report calls
	ReportDup   float64 // report delivered twice
	GrantDrop   float64 // Grant() observes no fresh grant

	// CheckpointDrop loses a checkpoint frame in flight: the node
	// counts it sent, the coordinator never stores it. Failover then
	// resumes from an older checkpoint — more bins replayed, same
	// correctness.
	CheckpointDrop float64

	// MaxDelay bounds how many subsequent Report calls a delayed
	// report is held across. Default 3.
	MaxDelay int
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 3
	}
	return c
}

// FaultStats counts the faults injected so far.
type FaultStats struct {
	ReportsDropped     int64
	ReportsDelayed     int64
	ReportsDuplicated  int64
	GrantsDropped      int64
	CheckpointsDropped int64
}

// heldReport is a delayed report counting down to re-injection.
type heldReport struct {
	r    DemandReport
	left int // remaining Report calls before delivery
}

// FaultTransport wraps inner with seeded drop/delay/duplicate faults.
// Safe for concurrent use to the same degree as the wrapped transport.
type FaultTransport struct {
	mu    sync.Mutex
	inner NodeTransport
	cfg   FaultConfig
	rng   *hash.XorShift
	held  []heldReport
	stats FaultStats
}

// NewFaultTransport wraps inner under cfg's fault schedule.
func NewFaultTransport(inner NodeTransport, cfg FaultConfig) *FaultTransport {
	cfg = cfg.withDefaults()
	return &FaultTransport{
		inner: inner,
		cfg:   cfg,
		rng:   hash.NewXorShift(cfg.Seed ^ 0xfa017),
	}
}

// SetConfig swaps the fault probabilities mid-run (the fault schedule
// generator keeps its state), so a test or experiment can script loss
// episodes: lossless, then a full partition, then healed.
func (f *FaultTransport) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg.withDefaults()
}

// Stats returns the fault counters so far.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Report applies the report fate — deliver, drop, hold, or duplicate —
// and re-injects any previously held reports whose delay expired.
// Delivery errors from the wrapped transport surface unchanged; faults
// themselves never error (a dropped report looks like success, exactly
// as UDP-style loss would).
func (f *FaultTransport) Report(r DemandReport) error {
	f.mu.Lock()
	// Count down held reports first: one Report call = one bin of
	// delay, and an expiring report is delivered before the current
	// one to keep it the older of the two at the coordinator.
	var due []DemandReport
	kept := f.held[:0]
	for _, h := range f.held {
		h.left--
		if h.left <= 0 {
			due = append(due, h.r)
		} else {
			kept = append(kept, h)
		}
	}
	f.held = kept

	u := f.rng.Float64()
	c := f.cfg
	fate := 0 // 0 deliver, 1 drop, 2 delay, 3 duplicate
	switch {
	case u < c.ReportDrop:
		fate = 1
		f.stats.ReportsDropped++
	case u < c.ReportDrop+c.ReportDelay:
		fate = 2
		f.stats.ReportsDelayed++
		f.held = append(f.held, heldReport{r: r, left: 1 + f.rng.Intn(c.MaxDelay)})
	case u < c.ReportDrop+c.ReportDelay+c.ReportDup:
		fate = 3
		f.stats.ReportsDuplicated++
	}
	f.mu.Unlock()

	var err error
	for _, d := range due {
		if e := f.inner.Report(d); e != nil && err == nil {
			err = e
		}
	}
	switch fate {
	case 1, 2: // dropped or held: nothing crosses this bin
	case 3:
		if e := f.inner.Report(r); e != nil && err == nil {
			err = e
		}
		fallthrough
	default:
		if e := f.inner.Report(r); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Grant reads the wrapped grant unless the fault schedule eats it, in
// which case the node observes "no fresh grant" and fails open to its
// current local capacity.
func (f *FaultTransport) Grant() (BudgetGrant, bool) {
	f.mu.Lock()
	dropped := f.rng.Float64() < f.cfg.GrantDrop
	if dropped {
		f.stats.GrantsDropped++
	}
	f.mu.Unlock()
	if dropped {
		return BudgetGrant{}, false
	}
	return f.inner.Grant()
}

// Checkpoint applies the checkpoint fate: delivered to the wrapped
// transport or lost in flight. Loss looks like success to the node,
// exactly as a frame dropped mid-link would.
func (f *FaultTransport) Checkpoint(cp *ShardCheckpoint) error {
	f.mu.Lock()
	dropped := f.rng.Float64() < f.cfg.CheckpointDrop
	if dropped {
		f.stats.CheckpointsDropped++
	}
	f.mu.Unlock()
	if dropped {
		return nil
	}
	return f.inner.Checkpoint(cp)
}

// DrainRequested passes the coordinator's drain signal through
// unfaulted: the drain is re-signaled every poll anyway, so dropping it
// would only test the retry we already rely on for checkpoints.
func (f *FaultTransport) DrainRequested() bool { return f.inner.DrainRequested() }

// Adoption passes through unfaulted: no schedule loses offers at the
// adopter (the coordinator's offer timeout and rotation are driven on a
// synthetic clock instead).
func (f *FaultTransport) Adoption() (AdoptOffer, bool) { return f.inner.Adoption() }

// Close closes the wrapped transport; held reports are discarded, as
// in-flight frames are when a link dies.
func (f *FaultTransport) Close() error { return f.inner.Close() }
