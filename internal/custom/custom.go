// Package custom implements the custom load shedding protocol of thesis
// Chapter 6: queries that are not robust to traffic sampling may shed
// excess load themselves, and the monitoring system audits their actual
// against expected resource consumption and polices the ones that shed
// too little — whether from inherent limitations, bugs, or malice.
//
// The enforcement ladder (§6.1.1) is:
//
//	ModeCustom  — the query sheds via ShedTo; the system audits.
//	ModePoliced — the query violated its allocation repeatedly; the
//	              system takes over and applies packet sampling.
//	ModeDisabled — continued violations; the query is suspended for a
//	              penalty period, then returns to ModePoliced.
package custom

// Shedder is the contract a query implements to shed its own load: the
// system asks it to reduce consumption to the given fraction of its
// unshed cost.
type Shedder interface {
	ShedTo(frac float64)
}

// Mode is a query's position on the enforcement ladder.
type Mode int

// Enforcement modes.
const (
	ModeCustom Mode = iota
	ModePoliced
	ModeDisabled
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeCustom:
		return "custom"
	case ModePoliced:
		return "policed"
	case ModeDisabled:
		return "disabled"
	default:
		return "unknown"
	}
}

// policy holds the enforcement tunables.
type policy struct {
	// Tolerance is the allowed relative overuse before a bin counts as
	// a violation.
	Tolerance float64
	// ViolationLimit is the violation count that triggers escalation.
	ViolationLimit int
	// PenaltyBins is how long a disabled query stays suspended.
	PenaltyBins int
	// CorrAlpha is the EWMA weight of the actual/expected consumption
	// ratio (the correction factor of §6.1.2).
	CorrAlpha float64
	// MinFrac floors the demand inflation 1/frac for queries that do
	// not declare a minimum rate.
	MinFrac float64
	// ProbeInterval is how many shed bins pass between responsiveness
	// probes; 0 disables probing.
	ProbeInterval int
	// ProbeBins is how many active bins a probe holds its halved
	// request; query cost follows shed requests with a lag of a few
	// bins (inspection decisions bind at flow creation), so a one-bin
	// probe would flag every compliant query.
	ProbeBins int
	// ProbeFailLimit is how many consecutive failed probes trigger
	// policing.
	ProbeFailLimit int
}

// defaultPolicy returns the enforcement settings used in the
// evaluation.
func defaultPolicy() policy {
	return policy{
		Tolerance:      0.6,
		ViolationLimit: 10,
		PenaltyBins:    100,
		CorrAlpha:      0.1,
		MinFrac:        0.05,
		ProbeInterval:  30,
		ProbeBins:      8,
		ProbeFailLimit: 3,
	}
}

// State is the manager's per-query record.
type State struct {
	name    string
	shedder Shedder
	minFrac float64 // the query's minimum tolerable fraction (its m_q)

	mode       Mode
	frac       float64 // shed fraction currently requested from the query
	lastRate   float64 // rate the scheduler decided last bin
	lastFrac   float64 // fraction actually requested from the query
	lastDemand float64 // demand used for that decision
	corr       float64 // EWMA of actual/expected consumption
	violations int
	penalty    int // bins left in ModeDisabled

	// Responsiveness probe (see Audit): every ProbeInterval shed bins
	// the request is halved for ProbeBins active bins; a query whose
	// mean cost does not follow is not actually shedding.
	probeCountdown int
	probeLeft      int     // active probe bins remaining (0 = idle)
	probeApplied   bool    // the current bin ran at the probe fraction
	probeSum       float64 // Σ used over probe bins
	probeCnt       int
	baseEWMA       float64 // EWMA of used on active, non-probe bins
	baseSeeded     bool
	probeFails     int

	// LastExpected and LastActual expose the most recent audit pair,
	// the series plotted in Figure 6.3.
	LastExpected float64
	LastActual   float64
}

// Mode returns the query's enforcement mode.
func (st *State) Mode() Mode { return st.mode }

// Corr returns the correction factor (EWMA of actual/expected).
func (st *State) Corr() float64 { return st.corr }

// Name returns the registered query name.
func (st *State) Name() string { return st.name }

// Manager runs the custom shedding protocol for any number of queries.
type Manager struct {
	policy policy
	states []*State
}

// NewManager returns a manager enforcing the evaluation's policy.
func NewManager() *Manager {
	return &Manager{policy: defaultPolicy()}
}

// Register adds a query to the protocol and returns its state handle.
// minRate is the query's minimum sampling rate m_q, which for a
// custom-shedding query bounds the effort fraction the system may
// request.
func (m *Manager) Register(name string, sh Shedder, minRate float64) *State {
	if minRate <= 0 || minRate > 1 {
		minRate = m.policy.MinFrac
	}
	st := &State{name: name, shedder: sh, minFrac: minRate, frac: 1, lastFrac: 1, corr: 1}
	m.states = append(m.states, st)
	return st
}

// States returns all registered states (for reporting).
func (m *Manager) States() []*State { return m.states }

// Demand converts the predictor's estimate — which reflects the query's
// *current* shed regime — into the full-effort demand the scheduler
// needs, by inflating with the inverse shed fraction (§6.1.2). Outside
// custom mode the query is shed by sampling, so the prediction already
// is the demand.
func (m *Manager) Demand(st *State, pred float64) float64 {
	if st.mode != ModeCustom {
		st.lastDemand = pred
		return pred
	}
	f := st.frac
	if f < st.minFrac {
		f = st.minFrac
	}
	d := pred / f
	st.lastDemand = d
	return d
}

// Apply executes the scheduler's decision for a custom-shedding query:
// the allocated rate becomes the requested shed fraction, floored at
// the query's minimum (cost assumed proportional to effort; the next
// bin's audit corrects the residual). A zero rate means the scheduler
// disabled the query for this batch; no shed request is made because no
// traffic will be delivered.
func (m *Manager) Apply(st *State, rate float64) {
	st.lastRate = rate
	if st.mode != ModeCustom {
		return
	}
	if rate <= 0 {
		st.lastFrac = 0
		st.probeApplied = false
		return
	}
	if rate > 1 {
		rate = 1
	}
	target := rate
	if target < st.minFrac {
		target = st.minFrac
	}
	// Shed immediately but recover gradually: the prediction model
	// cannot observe the effort fraction, so a slowly varying fraction
	// keeps the query's cost regime quasi-stationary and predictable.
	if target < st.frac {
		st.frac = target
	} else {
		st.frac += 0.15 * (target - st.frac)
	}
	ask := st.frac
	st.probeApplied = false
	if st.probeLeft > 0 {
		// Responsiveness probe: halve the request while the probe holds.
		ask = st.frac / 2
		if ask < 0.05 {
			ask = 0.05
		}
		st.probeApplied = true
	}
	st.lastFrac = ask
	st.shedder.ShedTo(ask)
}

// Audit compares the query's measured consumption against what its
// allocation permitted, updates the correction factor, and walks the
// enforcement ladder on repeated violations.
func (m *Manager) Audit(st *State, used, pred float64) {
	// Penalty countdown for disabled queries.
	if st.mode == ModeDisabled {
		st.penalty--
		if st.penalty <= 0 {
			st.mode = ModePoliced
			st.violations = 0
		}
		return
	}

	// Responsiveness probe accounting. On active non-probe bins the
	// query's consumption feeds a baseline EWMA; during a probe the
	// consumption is accumulated; when the probe completes, the mean
	// probe-period consumption is compared against the baseline. A
	// compliant query asked to halve its effort lands well below the
	// baseline (with a few bins of lag); one that ignores shed requests
	// stays at it.
	switch {
	case st.probeApplied:
		st.probeSum += used
		st.probeCnt++
		st.probeLeft--
		if st.probeLeft == 0 && st.probeCnt > 0 && st.baseSeeded && st.baseEWMA > 0 {
			response := (st.probeSum / float64(st.probeCnt)) / st.baseEWMA
			st.probeSum, st.probeCnt = 0, 0
			if response > 0.85 {
				st.probeFails++
			} else {
				st.probeFails = 0
			}
			if m.policy.ProbeFailLimit > 0 && st.probeFails >= m.policy.ProbeFailLimit {
				st.probeFails = 0
				st.mode = ModePoliced
				st.frac = 1
				st.shedder.ShedTo(1)
				return
			}
		}
	case st.lastRate > 0 && st.probeLeft == 0:
		if st.baseSeeded {
			st.baseEWMA = 0.2*used + 0.8*st.baseEWMA
		} else {
			st.baseEWMA = used
			st.baseSeeded = true
		}
		if m.policy.ProbeInterval > 0 && st.lastFrac < 0.9 && st.mode == ModeCustom {
			st.probeCountdown++
			if st.probeCountdown >= m.policy.ProbeInterval {
				st.probeCountdown = 0
				st.probeLeft = m.policy.ProbeBins
				st.probeSum, st.probeCnt = 0, 0
			}
		}
	case st.lastRate <= 0 && st.probeLeft == 0 && m.policy.ProbeInterval > 0 && st.mode == ModeCustom:
		// Starved queries still accumulate toward a probe, so a query
		// that only gets occasional grants is probed on the very bins
		// it would binge on.
		st.probeCountdown++
		if st.probeCountdown >= m.policy.ProbeInterval {
			st.probeCountdown = 0
			st.probeLeft = m.policy.ProbeBins
			st.probeSum, st.probeCnt = 0, 0
		}
	}

	// Expected consumption: the fraction actually requested times the
	// demand estimate. A disabled bin (lastRate 0) delivers no traffic
	// and expects only residual cost.
	expected := st.lastFrac * st.lastDemand
	if st.mode == ModePoliced {
		expected = st.lastRate * st.lastDemand // enforced sampling
	}
	st.LastExpected = expected
	st.LastActual = used
	if expected > 0 {
		ratio := used / expected
		st.corr = m.policy.CorrAlpha*ratio + (1-m.policy.CorrAlpha)*st.corr
	}

	// Violations only matter when the system actually asked for
	// shedding: at full effort there is nothing to evade. The small
	// absolute floor keeps a query whose allocation collapsed (tiny
	// expected) from being unscorable.
	sheddingAsked := st.lastRate > 0 && st.lastFrac < 0.95
	if st.mode == ModePoliced {
		sheddingAsked = st.lastRate > 0 && st.lastRate < 0.95
	}
	allowance := expected*(1+m.policy.Tolerance) + 0.02*st.lastDemand
	if sheddingAsked && st.lastDemand > 0 && used > allowance {
		st.violations++
	} else {
		// Clean bins leak violations away twice as fast as dirty bins
		// accumulate them, so prediction lag around rate transitions
		// cannot slowly walk a compliant query into policing.
		st.violations -= 2
		if st.violations < 0 {
			st.violations = 0
		}
	}
	if st.violations >= m.policy.ViolationLimit {
		st.violations = 0
		switch st.mode {
		case ModeCustom:
			// Take shedding away from the query: reset its internal
			// shedding and fall back to enforced packet sampling.
			st.mode = ModePoliced
			st.frac = 1
			st.shedder.ShedTo(1)
		case ModePoliced:
			st.mode = ModeDisabled
			st.penalty = m.policy.PenaltyBins
		}
	}
}
