package experiments

import (
	"math"
	"testing"

	"repro/internal/sched"
)

func symmetricPlayers(n int, capacity float64) []player {
	ps := make([]player, n)
	for i := range ps {
		ps[i] = player{Name: string(rune('a' + i)), Demand: capacity, Claim: capacity / float64(n)}
	}
	return ps
}

func strategies() []sched.Strategy {
	return []sched.Strategy{sched.MMFSCPU{}, sched.MMFSPkt{}}
}

func TestFairShareIsEquilibrium(t *testing.T) {
	// Theorem 5.1: all players claiming C/|Q| is a Nash equilibrium.
	const capacity = 900.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(3, capacity)
		if !isEquilibrium(ps, capacity, strat, 90) {
			t.Errorf("%s: C/|Q| profile is not an equilibrium", strat.Name())
		}
	}
}

func TestOverclaimingGetsDisabled(t *testing.T) {
	// Proof case 1: a player claiming more than C/|Q| while others hold
	// the equilibrium gets payoff 0 (it has the largest minimum demand
	// and is disabled first).
	const capacity = 900.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(3, capacity)
		ps[0].Claim = capacity/3 + 50
		u := payoffs(ps, capacity, strat)
		if u[0] != 0 {
			t.Errorf("%s: over-claimer payoff = %v, want 0", strat.Name(), u[0])
		}
	}
}

func TestUnderclaimingNeverGains(t *testing.T) {
	// Proof case 2: claiming less than C/|Q| cannot beat the fair share.
	const capacity = 900.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(3, capacity)
		fair := payoffs(ps, capacity, strat)[0]
		for _, claim := range []float64{0, 50, 150, 250} {
			ps[0].Claim = claim
			if u := payoffs(ps, capacity, strat)[0]; u > fair+1e-9 {
				t.Errorf("%s: under-claim %v earned %v > fair %v", strat.Name(), claim, u, fair)
			}
		}
	}
}

func TestUnderProvisionedProfileNotEquilibrium(t *testing.T) {
	// Σa < C leaves spare cycles: some player wants to claim more, so
	// the profile is not an equilibrium (proof case 2 of uniqueness).
	const capacity = 900.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(3, capacity)
		for i := range ps {
			ps[i].Claim = 100 // sum 300 < 900
		}
		if isEquilibrium(ps, capacity, strat, 90) {
			t.Errorf("%s: under-provisioned profile wrongly an equilibrium", strat.Name())
		}
	}
}

func TestPayoffsRespectCapacity(t *testing.T) {
	const capacity = 500.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(4, capacity)
		u := payoffs(ps, capacity, strat)
		var sum float64
		for _, v := range u {
			sum += v
		}
		if sum > capacity*(1+1e-9) {
			t.Errorf("%s: payoffs %v exceed capacity", strat.Name(), sum)
		}
	}
}

func TestBestResponseFindsFairShare(t *testing.T) {
	const capacity = 900.0
	for _, strat := range strategies() {
		ps := symmetricPlayers(3, capacity)
		_, best := bestResponse(ps, 0, capacity, strat, 90)
		fair := capacity / 3
		if math.Abs(best-fair) > fair*0.02 {
			t.Errorf("%s: best-response payoff %v, want ~%v", strat.Name(), best, fair)
		}
	}
}

func TestAccuracyModels(t *testing.T) {
	if lightAccuracy(0) != 0 {
		t.Error("light accuracy at rate 0 must be 0 (disabled)")
	}
	if lightAccuracy(1) != 1 {
		t.Error("light accuracy at rate 1 must be 1")
	}
	if got := lightAccuracy(0.2); math.Abs(got-0.96) > 1e-12 {
		t.Errorf("light accuracy(0.2) = %v, want 0.96", got)
	}
	if heavyAccuracy(0.3) != 0.3 {
		t.Error("heavy accuracy should equal the rate")
	}
	if heavyAccuracy(2) != 1 || heavyAccuracy(-1) != 0 {
		t.Error("heavy accuracy not clamped")
	}
}

func TestSimulateFigure51Shape(t *testing.T) {
	// The Figure 5.1 headline: mmfs_pkt yields a (weakly) higher
	// minimum accuracy than mmfs_cpu across the (mq, K) plane, with the
	// largest gaps at moderate overload and small mq.
	qs := lightHeavySet(10, 0)
	total := totalCost(qs)
	anyGap := false
	for _, k := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		capacity := total * (1 - k)
		cpu := simulate(qs, capacity, sched.MMFSCPU{})
		pkt := simulate(qs, capacity, sched.MMFSPkt{})
		if pkt.Min < cpu.Min-1e-9 {
			t.Errorf("K=%v: mmfs_pkt min %v below mmfs_cpu %v", k, pkt.Min, cpu.Min)
		}
		if pkt.Min > cpu.Min+0.01 {
			anyGap = true
		}
		if math.Abs(pkt.Avg-cpu.Avg) > 0.25 {
			t.Errorf("K=%v: average accuracies diverge too much: %v vs %v", k, pkt.Avg, cpu.Avg)
		}
	}
	if !anyGap {
		t.Error("mmfs_pkt never beat mmfs_cpu on minimum accuracy")
	}
}

func TestSimulateNoOverload(t *testing.T) {
	qs := lightHeavySet(10, 0.1)
	res := simulate(qs, totalCost(qs), sched.MMFSPkt{})
	if res.Avg != 1 || res.Min != 1 {
		t.Fatalf("no-overload accuracies = %v/%v, want 1/1", res.Avg, res.Min)
	}
}

func TestSimulateInfiniteOverload(t *testing.T) {
	// K = 1: zero capacity, every query disabled, accuracy 0.
	qs := lightHeavySet(10, 0.2)
	res := simulate(qs, 0, sched.MMFSPkt{})
	if res.Avg != 0 || res.Min != 0 {
		t.Fatalf("K=1 accuracies = %v/%v, want 0/0", res.Avg, res.Min)
	}
}

func TestLightHeavySet(t *testing.T) {
	qs := lightHeavySet(10, 0.3)
	if len(qs) != 11 {
		t.Fatalf("set size = %d", len(qs))
	}
	if qs[0].Cost != 10*qs[1].Cost {
		t.Fatal("heavy query should cost 10x a light one")
	}
	if totalCost(qs) != qs[0].Cost*2 {
		t.Fatalf("total cost = %v, want heavy + 10 lights = 2x heavy", totalCost(qs))
	}
}
