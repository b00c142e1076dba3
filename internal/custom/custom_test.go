package custom

import (
	"testing"

	"repro/internal/queries"
)

// fakeShedder records the fractions it was asked to shed to.
type fakeShedder struct {
	asked []float64
}

func (f *fakeShedder) ShedTo(frac float64) { f.asked = append(f.asked, frac) }

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{ModeCustom: "custom", ModePoliced: "policed", ModeDisabled: "disabled", Mode(9): "unknown"}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), w)
		}
	}
}

func TestRegisterDefaults(t *testing.T) {
	m := NewManager()
	st := m.Register("q", &fakeShedder{}, 0.1)
	if st.Mode() != ModeCustom || st.frac != 1 || st.Corr() != 1 {
		t.Fatalf("fresh state = mode %v frac %v corr %v", st.Mode(), st.frac, st.Corr())
	}
	if len(m.States()) != 1 || st.Name() != "q" {
		t.Fatal("registration bookkeeping wrong")
	}
}

func TestApplyForwardsFraction(t *testing.T) {
	m := NewManager()
	sh := &fakeShedder{}
	st := m.Register("q", sh, 0.1)
	m.Apply(st, 0.4)
	if len(sh.asked) != 1 || sh.asked[0] != 0.4 {
		t.Fatalf("ShedTo calls = %v", sh.asked)
	}
	if st.frac != 0.4 {
		t.Fatalf("Frac = %v", st.frac)
	}
}

func TestApplyClampsRate(t *testing.T) {
	m := NewManager()
	sh := &fakeShedder{}
	st := m.Register("q", sh, 0.1)
	m.Apply(st, 2)
	if sh.asked[0] != 1 {
		t.Fatalf("rate not clamped: %v", sh.asked)
	}
	// A non-positive rate means "disabled this bin": no shed request is
	// forwarded because no traffic will be delivered.
	m.Apply(st, -0.5)
	if len(sh.asked) != 1 {
		t.Fatalf("disabled bin still forwarded a shed request: %v", sh.asked)
	}
	if st.frac != 1 {
		t.Fatalf("disabled bin changed the standing fraction: %v", st.frac)
	}
}

func TestDemandInflatesByFraction(t *testing.T) {
	m := NewManager()
	st := m.Register("q", &fakeShedder{}, 0.1)
	m.Apply(st, 0.5)
	if got := m.Demand(st, 100); got != 200 {
		t.Fatalf("Demand = %v, want 200", got)
	}
	// Floor at MinFrac to avoid blow-ups.
	m.Apply(st, 0.001)
	if got := m.Demand(st, 100); got > 100/defaultPolicy().MinFrac+1 {
		t.Fatalf("Demand = %v, not floored", got)
	}
}

func TestCompliantQueryStaysCustom(t *testing.T) {
	// A genuinely compliant fake: its cost follows the requested
	// fraction (full cost 200 cycles), so both the audit and the
	// responsiveness probes stay satisfied.
	m := NewManager()
	sh := &fakeShedder{}
	st := m.Register("q", sh, 0.1)
	const full = 200.0
	frac := 1.0
	for i := 0; i < 300; i++ {
		pred := full * frac // the model tracks the current regime
		m.Demand(st, pred)
		m.Apply(st, 0.5)
		frac = sh.asked[len(sh.asked)-1]
		m.Audit(st, full*frac*1.05, pred)
	}
	if st.Mode() != ModeCustom {
		t.Fatalf("compliant query escalated to %v", st.Mode())
	}
}

func TestProbeCatchesUnresponsiveQuery(t *testing.T) {
	// A selfish fake: cost stays at full no matter what was asked. The
	// responsiveness probe must police it even though its demand
	// inflation keeps the bin-wise audit ratios unsuspicious.
	m := NewManager()
	st := m.Register("q", &fakeShedder{}, 0.1)
	const full = 200.0
	for i := 0; i < 300 && st.Mode() == ModeCustom; i++ {
		m.Demand(st, full) // model keeps seeing the full cost
		m.Apply(st, 0.5)
		m.Audit(st, full, full)
	}
	if st.Mode() == ModeCustom {
		t.Fatal("unresponsive query never policed")
	}
}

func TestSelfishQueryGetsPoliced(t *testing.T) {
	m := NewManager()
	st := m.Register("q", &fakeShedder{}, 0.1)
	for i := 0; i < 50 && st.Mode() == ModeCustom; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		// Selfish: keeps using the full demand (200) despite alloc 100.
		m.Audit(st, 200, 100)
	}
	if st.Mode() != ModePoliced {
		t.Fatalf("selfish query not policed: %v after 50 bins", st.Mode())
	}
}

func TestPolicedEscalatesToDisabled(t *testing.T) {
	m := NewManager()
	sh := &fakeShedder{}
	st := m.Register("q", sh, 0.1)
	for i := 0; i < 500 && st.Mode() != ModeDisabled; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		m.Audit(st, 300, 100)
	}
	if st.Mode() != ModeDisabled {
		t.Fatalf("persistent violator never disabled: %v", st.Mode())
	}
}

func TestDisabledReturnsToPolicedAfterPenalty(t *testing.T) {
	m := NewManager()
	m.policy.PenaltyBins = 5
	st := m.Register("q", &fakeShedder{}, 0.1)
	// Drive to disabled.
	for i := 0; i < 500 && st.Mode() != ModeDisabled; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		m.Audit(st, 300, 100)
	}
	if st.Mode() != ModeDisabled {
		t.Fatal("setup failed: not disabled")
	}
	for i := 0; i < 5; i++ {
		m.Audit(st, 0, 0) // penalty ticks
	}
	if st.Mode() != ModePoliced {
		t.Fatalf("penalty did not expire: %v", st.Mode())
	}
}

func TestPolicingResetsQueryShedding(t *testing.T) {
	m := NewManager()
	sh := &fakeShedder{}
	st := m.Register("q", sh, 0.1)
	for i := 0; i < 50 && st.Mode() == ModeCustom; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		m.Audit(st, 300, 100)
	}
	if st.Mode() != ModePoliced {
		t.Fatal("setup failed")
	}
	// The last ShedTo call must be the reset to full effort.
	if last := sh.asked[len(sh.asked)-1]; last != 1 {
		t.Fatalf("policing did not reset internal shedding: last ShedTo(%v)", last)
	}
	// Apply in policed mode must not call ShedTo again.
	n := len(sh.asked)
	m.Apply(st, 0.3)
	if len(sh.asked) != n {
		t.Fatal("Apply still forwards to a policed query")
	}
}

func TestFullRateNeverViolates(t *testing.T) {
	m := NewManager()
	st := m.Register("q", &fakeShedder{}, 0.1)
	for i := 0; i < 100; i++ {
		m.Demand(st, 100)
		m.Apply(st, 1.0)
		m.Audit(st, 500, 100) // way over, but nothing was shed
	}
	if st.Mode() != ModeCustom {
		t.Fatalf("query escalated at full rate: %v", st.Mode())
	}
}

func TestViolationsLeak(t *testing.T) {
	m := NewManager()
	m.policy.ProbeInterval = 0 // isolate the leaky counter from probing
	st := m.Register("q", &fakeShedder{}, 0.1)
	// Alternate one violation with one clean bin: the leaky counter
	// should never reach the limit.
	for i := 0; i < 100; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		if i%2 == 0 {
			m.Audit(st, 200, 100)
		} else {
			m.Audit(st, 100, 100)
		}
	}
	if st.Mode() != ModeCustom {
		t.Fatalf("alternating violations escalated: %v", st.Mode())
	}
}

func TestCorrTracksRatio(t *testing.T) {
	m := NewManager()
	m.policy.ProbeInterval = 0 // keep the requested fraction steady
	st := m.Register("q", &fakeShedder{}, 0.1)
	for i := 0; i < 300; i++ {
		m.Demand(st, 100)
		m.Apply(st, 0.5)
		m.Audit(st, 130, 100) // consistently 1.3x expected
	}
	if got := st.Corr(); got < 1.25 || got > 1.35 {
		t.Fatalf("correction factor = %v, want ~1.3", got)
	}
	if st.LastExpected != 100 || st.LastActual != 130 {
		t.Fatalf("audit pair = %v/%v", st.LastExpected, st.LastActual)
	}
}

// recordingQuery is a p2p-detector that records the shed fraction
// last asked of it, so a wrapper's forwarding can be read back.
type recordingQuery struct {
	queries.Query
	frac float64
}

func (r *recordingQuery) ShedTo(f float64) { r.frac = f }

func newRecordingQuery() *recordingQuery {
	return &recordingQuery{Query: queries.NewP2PDetector(queries.Config{}), frac: 1}
}

func TestSelfishWrapperIgnoresShed(t *testing.T) {
	p2p := newRecordingQuery()
	s := NewSelfish(p2p)
	s.ShedTo(0.1)
	if p2p.frac != 1 {
		t.Fatalf("selfish wrapper leaked ShedTo: frac=%v", p2p.frac)
	}
	if s.Name() != "p2p-detector-selfish" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestBuggyWrapperShedsTooLittle(t *testing.T) {
	p2p := newRecordingQuery()
	b := NewBuggy(p2p)
	b.ShedTo(0.2)
	if got := p2p.frac; got < 0.4 {
		t.Fatalf("buggy wrapper shed too much: frac=%v", got)
	}
	b.ShedTo(1.0)
	if got := p2p.frac; got != 1 {
		t.Fatalf("buggy wrapper at full rate: %v", got)
	}
	if b.Name() != "p2p-detector-buggy" {
		t.Fatalf("Name = %q", b.Name())
	}
}

func TestWrappersSatisfyShedderQuery(t *testing.T) {
	var _ ShedderQuery = NewSelfish(queries.NewP2PDetector(queries.Config{}))
	var _ ShedderQuery = NewBuggy(queries.NewP2PDetector(queries.Config{}))
}
