package loadshed

// fault_test.go pins the coordination layer's failure contract under a
// seeded fault injector. FaultTransport wraps any NodeTransport and
// perturbs the message flow the way a lossy network would: reports get
// dropped, held back a few bins, or duplicated; grant reads come up
// empty as if the frame never arrived. Faults are drawn from a seeded
// generator, so a given seed produces the same fault schedule on every
// run.
//
// Coordination is advisory, never load-bearing (NodeTransport doc): the
// fault schedule is reproducible, and a node behind a fully grant-lossy
// link fails open to an uncoordinated run, bit for bit (TestConformance's
// grant-loss row). The coordinator's lease liveness under report loss is
// internal/control's TestCoordinatorLeaseLivenessUnderReportLoss.

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/control"
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
func (f *FaultTransport) Grant() (control.BudgetGrant, bool) {
	f.mu.Lock()
	dropped := f.rng.Float64() < f.cfg.GrantDrop
	if dropped {
		f.stats.GrantsDropped++
	}
	f.mu.Unlock()
	if dropped {
		return control.BudgetGrant{}, false
	}
	return f.inner.Grant()
}

// Checkpoint applies the checkpoint fate: delivered to the wrapped
// transport or lost in flight. Loss looks like success to the node,
// exactly as a frame dropped mid-link would.
func (f *FaultTransport) Checkpoint(blob []byte, bin int64, final bool) error {
	f.mu.Lock()
	dropped := f.rng.Float64() < f.cfg.CheckpointDrop
	if dropped {
		f.stats.CheckpointsDropped++
	}
	f.mu.Unlock()
	if dropped {
		return nil
	}
	return f.inner.Checkpoint(blob, bin, final)
}

// DrainRequested passes the coordinator's drain signal through
// unfaulted: the drain is re-signaled every poll anyway, so dropping it
// would only test the retry we already rely on for checkpoints.
func (f *FaultTransport) DrainRequested() bool { return f.inner.DrainRequested() }

func TestFaultTransportDeterministicSchedule(t *testing.T) {
	const n = 400
	cfg := FaultConfig{Seed: 5, ReportDrop: 0.2, ReportDelay: 0.2, ReportDup: 0.1, GrantDrop: 0.3}
	run := func() ([]DemandReport, int, FaultStats) {
		inner := &captureTransport{capacity: 100}
		ft := NewFaultTransport(inner, cfg)
		grants := 0
		for i := 0; i < n; i++ {
			ft.Report(DemandReport{Node: "w", Bin: int64(i), Demand: float64(i)})
			if _, ok := ft.Grant(); ok {
				grants++
			}
		}
		return inner.reports, grants, ft.Stats()
	}

	rep1, grants1, st1 := run()
	rep2, grants2, st2 := run()
	if !reflect.DeepEqual(rep1, rep2) || grants1 != grants2 || st1 != st2 {
		t.Fatal("same seed produced different fault schedules")
	}

	if st1.ReportsDropped == 0 || st1.ReportsDelayed == 0 || st1.ReportsDuplicated == 0 || st1.GrantsDropped == 0 {
		t.Fatalf("fault mix did not exercise every fate: %+v", st1)
	}
	// Conservation: every report fed in is dropped, still held back, or
	// delivered — with duplicates delivered twice.
	held := int64(n) - int64(len(rep1)) - st1.ReportsDropped + st1.ReportsDuplicated
	if held < 0 || held > st1.ReportsDelayed {
		t.Fatalf("report conservation broken: %d delivered, stats %+v", len(rep1), st1)
	}
	// Delayed reports arrive out of order but intact: every delivered
	// bin appears at most 1+dup times and at most MaxDelay calls after
	// its own. The feeding call is identifiable because Bin tracks it:
	// an in-order delivery pins the current call, and nothing may trail
	// it by more than the delay bound.
	maxDelay := int64(FaultConfig{}.withDefaults().MaxDelay)
	seen := map[int64]int{}
	call := int64(0)
	for _, r := range rep1 {
		seen[r.Bin]++
		if r.Bin > call {
			call = r.Bin
		}
		if r.Bin < call-maxDelay {
			t.Fatalf("bin %d delivered during call %d, outside the delay bound", r.Bin, call)
		}
	}
	for bin, k := range seen {
		if k > 2 {
			t.Fatalf("bin %d delivered %d times, want at most 2 (one duplicate)", bin, k)
		}
	}
	if grants1 >= n || grants1 == 0 {
		t.Fatalf("grant drop at 0.3 passed %d/%d grants", grants1, n)
	}
}
