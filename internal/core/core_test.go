package core

import (
	"math"
	"testing"
)

func TestAvailBasic(t *testing.T) {
	g := NewGovernor(1000)
	if got := g.Avail(100); got != 900 {
		t.Fatalf("Avail = %v, want 900", got)
	}
}

func TestNeedShed(t *testing.T) {
	g := NewGovernor(1000)
	if g.NeedShed(900, 800) {
		t.Fatal("no shedding needed when prediction fits")
	}
	if !g.NeedShed(900, 1000) {
		t.Fatal("shedding needed when prediction exceeds avail")
	}
}

func TestNeedShedInflatesByError(t *testing.T) {
	g := NewGovernor(1000)
	// Teach the governor a 25% under-prediction: alloc 800, used 1067.
	g.Observe(Feedback{AllocCycles: 800, UsedCycles: 1066.67, QueryAvail: 900})
	if g.errEWMA <= 0.2 {
		t.Fatalf("error EWMA = %v, want > 0.2", g.errEWMA)
	}
	// Prediction 800 fits raw availability 900 but not with the margin.
	if !g.NeedShed(900, 800) {
		t.Fatal("error margin ignored")
	}
}

func TestRateClamped(t *testing.T) {
	g := NewGovernor(1000)
	if got := g.Rate(500, 1000); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
	if got := g.Rate(-100, 1000); got != 0 {
		t.Fatalf("negative avail rate = %v, want 0", got)
	}
	if got := g.Rate(5000, 1000); got != 1 {
		t.Fatalf("ample avail rate = %v, want 1", got)
	}
	if got := g.Rate(100, 0); got != 1 {
		t.Fatalf("zero prediction rate = %v, want 1", got)
	}
}

func TestRateReservesShedOverhead(t *testing.T) {
	g := NewGovernor(1000)
	for i := 0; i < 50; i++ {
		g.Observe(Feedback{ShedCycles: 100, UsedCycles: 500, AllocCycles: 500, QueryAvail: 0})
	}
	if math.Abs(g.lsEWMA-100) > 1 {
		t.Fatalf("shed overhead EWMA = %v, want ~100", g.lsEWMA)
	}
	// avail 600, pred 1000: rate = (600-100)/1000 = 0.5.
	if got := g.Rate(600, 1000); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("rate = %v, want ~0.5", got)
	}
}

func TestDelayAccumulatesAndDrains(t *testing.T) {
	g := NewGovernor(1000)
	g.Observe(Feedback{UsedCycles: 1500, QueryAvail: 1000}) // 500 over
	if math.Abs(g.Delay()-500) > 1e-9 {
		t.Fatalf("delay = %v, want 500", g.Delay())
	}
	g.Observe(Feedback{UsedCycles: 700, QueryAvail: 1000}) // 300 under
	if math.Abs(g.Delay()-200) > 1e-9 {
		t.Fatalf("delay = %v, want 200", g.Delay())
	}
	g.Observe(Feedback{UsedCycles: 0, QueryAvail: 1000})
	if g.Delay() != 0 {
		t.Fatalf("delay = %v, want 0 (never negative)", g.Delay())
	}
}

func TestDelayReducesAvail(t *testing.T) {
	g := NewGovernor(1000)
	g.Observe(Feedback{UsedCycles: 1400, QueryAvail: 1500}) // delay 400, rtt grows
	avail := g.Avail(0)
	if avail >= 1000 {
		t.Fatalf("avail = %v, should be cut by delay", avail)
	}
}

func TestRTThreshSlowStart(t *testing.T) {
	g := NewGovernor(1000)
	// Repeated underuse grows rtthresh exponentially from the step.
	g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	first := g.rtt
	if first != 10 { // 1% of capacity
		t.Fatalf("first rtthresh = %v, want 10", first)
	}
	g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	if g.rtt != 20 {
		t.Fatalf("rtthresh = %v, want doubled to 20", g.rtt)
	}
}

func TestRTThreshBackoffOnLoss(t *testing.T) {
	g := NewGovernor(1000)
	for i := 0; i < 6; i++ {
		g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	}
	grown := g.rtt
	if grown <= 100 {
		t.Fatalf("rtthresh did not grow: %v", grown)
	}
	g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900, BufferLoss: true})
	if g.rtt != 0 {
		t.Fatalf("rtthresh = %v after loss, want 0", g.rtt)
	}
	// Growth resumes exponentially until ssthr = grown/2, then linearly.
	prev := 0.0
	for i := 0; i < 30; i++ {
		g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
		cur := g.rtt
		if cur > grown/2 && cur-prev > 10+1e-9 {
			t.Fatalf("growth above ssthr should be linear: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestRTThreshCapped(t *testing.T) {
	g := NewGovernor(1000)
	for i := 0; i < 1000; i++ {
		g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	}
	if g.rtt > 2000 {
		t.Fatalf("rtthresh = %v exceeds the 2x-capacity default cap", g.rtt)
	}
}

func TestSetRTTCap(t *testing.T) {
	g := NewGovernor(1000)
	for i := 0; i < 100; i++ {
		g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	}
	g.SetRTTCap(500)
	if g.rtt > 500 {
		t.Fatalf("SetRTTCap did not clamp current rtthresh: %v", g.rtt)
	}
	for i := 0; i < 100; i++ {
		g.Observe(Feedback{UsedCycles: 100, QueryAvail: 900})
	}
	if g.rtt > 500 {
		t.Fatalf("rtthresh grew past the configured cap: %v", g.rtt)
	}
	// A cap below the growth step is floored at the step.
	g.SetRTTCap(1)
	if g.rtt > 10 {
		t.Fatalf("rtthresh = %v, want <= step", g.rtt)
	}
}

func TestQueryBudget(t *testing.T) {
	g := NewGovernor(1000)
	if got := g.QueryBudget(500); got != 500 {
		t.Fatalf("budget = %v, want 500 with zero error/overhead", got)
	}
	if got := g.QueryBudget(-10); got != 0 {
		t.Fatalf("budget = %v, want 0 for negative avail", got)
	}
}

func TestSetCapacity(t *testing.T) {
	g := NewGovernor(1000)
	g.SetCapacity(2000)
	if g.Capacity() != 2000 {
		t.Fatal("SetCapacity did not apply")
	}
	if got := g.Avail(0); got != 2000 {
		t.Fatalf("Avail = %v after capacity change", got)
	}
}

func TestErrEWMADecays(t *testing.T) {
	g := NewGovernor(1000)
	g.Observe(Feedback{AllocCycles: 500, UsedCycles: 1000, QueryAvail: 0}) // 50% error
	peak := g.errEWMA
	for i := 0; i < 50; i++ {
		g.Observe(Feedback{AllocCycles: 1000, UsedCycles: 1000, QueryAvail: 0})
	}
	if g.errEWMA >= peak/10 {
		t.Fatalf("error EWMA did not decay: %v -> %v", peak, g.errEWMA)
	}
}
