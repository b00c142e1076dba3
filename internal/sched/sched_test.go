package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hash"
)

func demands() []Demand {
	return []Demand{
		{Name: "cheap", Cycles: 100, MinRate: 0.05},
		{Name: "mid", Cycles: 500, MinRate: 0.20},
		{Name: "heavy", Cycles: 1000, MinRate: 0.50},
	}
}

func totalCycles(allocs []Allocation) float64 {
	var s float64
	for _, a := range allocs {
		s += a.Cycles
	}
	return s
}

func checkInvariants(t *testing.T, name string, ds []Demand, allocs []Allocation, capacity float64) {
	t.Helper()
	if len(allocs) != len(ds) {
		t.Fatalf("%s: allocation count mismatch", name)
	}
	if got := totalCycles(allocs); got > capacity*(1+1e-9)+1e-9 {
		t.Errorf("%s: allocated %v cycles, capacity %v", name, got, capacity)
	}
	for i, a := range allocs {
		if a.Rate < 0 || a.Rate > 1+1e-12 {
			t.Errorf("%s: rate[%d] = %v out of range", name, i, a.Rate)
		}
		// The plain "equal" strategy is the Chapter 4 design that
		// deliberately ignores minimum rates; the invariant holds for
		// every other strategy.
		if name != "equal" && a.Rate > 0 && a.Rate < ds[i].MinRate-1e-9 {
			t.Errorf("%s: rate[%d] = %v below minimum %v without disabling", name, i, a.Rate, ds[i].MinRate)
		}
		if math.Abs(a.Cycles-a.Rate*ds[i].Cycles) > 1e-6*math.Max(1, ds[i].Cycles) {
			t.Errorf("%s: cycles[%d] inconsistent with rate", name, i)
		}
	}
}

func allStrategies() []Strategy {
	return []Strategy{
		EqualRates{},
		EqualRates{RespectMinRates: true},
		MMFSCPU{},
		MMFSPkt{},
	}
}

func TestNoOverloadGivesFullRates(t *testing.T) {
	ds := demands()
	for _, s := range allStrategies() {
		allocs := AllocateInto(s, ds, 1e9, new(Workspace))
		for i, a := range allocs {
			if a.Rate != 1 {
				t.Errorf("%s: rate[%d] = %v with infinite capacity", s.Name(), i, a.Rate)
			}
		}
	}
}

func TestInvariantsUnderOverload(t *testing.T) {
	ds := demands()
	for _, s := range allStrategies() {
		for _, c := range []float64{1600, 800, 400, 200, 100, 10} {
			checkInvariants(t, s.Name(), ds, AllocateInto(s, ds, c, new(Workspace)), c)
		}
	}
}

func TestEqualRatesGlobalRate(t *testing.T) {
	ds := demands() // total 1600
	allocs := AllocateInto(EqualRates{}, ds, 800, new(Workspace))
	for i, a := range allocs {
		if math.Abs(a.Rate-0.5) > 1e-9 {
			t.Errorf("rate[%d] = %v, want 0.5", i, a.Rate)
		}
	}
}

func TestEqualRatesIgnoresMinWithoutFlag(t *testing.T) {
	ds := demands()
	allocs := AllocateInto(EqualRates{}, ds, 160, new(Workspace)) // global rate 0.1 < heavy's 0.5
	if allocs[2].Rate >= ds[2].MinRate {
		t.Fatal("plain equal-rates should not respect minimums")
	}
}

func TestEqSratesDisablesUnsatisfiable(t *testing.T) {
	ds := demands()
	// Capacity 160: global rate over all three would be 0.1, below mid's
	// 0.2 and heavy's 0.5 -> both disabled; survivors get min(1, 160/100).
	allocs := AllocateInto(EqualRates{RespectMinRates: true}, ds, 160, new(Workspace))
	if allocs[1].Rate != 0 || allocs[2].Rate != 0 {
		t.Fatalf("expected mid+heavy disabled: %+v", allocs)
	}
	if allocs[0].Rate != 1 {
		t.Fatalf("cheap should run at full rate: %+v", allocs[0])
	}
}

func TestMMFSDisablesLargestMinDemandFirst(t *testing.T) {
	ds := demands()
	// Minimum demands: 5, 100, 500 cycles. Capacity 120 forces heavy
	// out (500), keeps cheap+mid (105).
	for _, s := range []Strategy{MMFSCPU{}, MMFSPkt{}} {
		allocs := AllocateInto(s, ds, 120, new(Workspace))
		if allocs[2].Rate != 0 {
			t.Errorf("%s: heavy not disabled: %+v", s.Name(), allocs)
		}
		if allocs[0].Rate == 0 || allocs[1].Rate == 0 {
			t.Errorf("%s: survivors wrongly disabled: %+v", s.Name(), allocs)
		}
	}
}

func TestMMFSCPUWaterLevel(t *testing.T) {
	ds := []Demand{
		{Name: "a", Cycles: 100, MinRate: 0},
		{Name: "b", Cycles: 1000, MinRate: 0},
	}
	// Capacity 300: water level 200 would give a=100 (capped), b=200.
	allocs := AllocateInto(MMFSCPU{}, ds, 300, new(Workspace))
	if math.Abs(allocs[0].Cycles-100) > 1 {
		t.Errorf("a cycles = %v, want ~100 (its full demand)", allocs[0].Cycles)
	}
	if math.Abs(allocs[1].Cycles-200) > 1 {
		t.Errorf("b cycles = %v, want ~200", allocs[1].Cycles)
	}
}

func TestMMFSCPUPenalizesExpensiveQuery(t *testing.T) {
	// CPU fairness gives equal cycles: the heavy query ends with a much
	// lower sampling rate than the light one.
	ds := []Demand{
		{Name: "light", Cycles: 100, MinRate: 0},
		{Name: "heavy", Cycles: 1000, MinRate: 0},
	}
	allocs := AllocateInto(MMFSCPU{}, ds, 220, new(Workspace))
	if allocs[0].Rate <= allocs[1].Rate {
		t.Fatalf("light rate %v should exceed heavy rate %v", allocs[0].Rate, allocs[1].Rate)
	}
}

func TestMMFSPktEqualizesRates(t *testing.T) {
	// Packet fairness gives equal rates regardless of per-query cost.
	ds := []Demand{
		{Name: "light", Cycles: 100, MinRate: 0},
		{Name: "heavy", Cycles: 1000, MinRate: 0},
	}
	allocs := AllocateInto(MMFSPkt{}, ds, 550, new(Workspace))
	if math.Abs(allocs[0].Rate-allocs[1].Rate) > 1e-6 {
		t.Fatalf("rates differ: %v vs %v", allocs[0].Rate, allocs[1].Rate)
	}
	if math.Abs(allocs[0].Rate-0.5) > 1e-6 {
		t.Fatalf("rate = %v, want 0.5", allocs[0].Rate)
	}
}

func TestMMFSPktPinsAtMinimum(t *testing.T) {
	ds := []Demand{
		{Name: "tolerant", Cycles: 500, MinRate: 0.01},
		{Name: "demanding", Cycles: 500, MinRate: 0.8},
	}
	// Capacity 500: global rate 0.5 < demanding's minimum, so demanding
	// pins at 0.8 (400 cycles) and tolerant gets the remaining 100.
	allocs := AllocateInto(MMFSPkt{}, ds, 500, new(Workspace))
	if math.Abs(allocs[1].Rate-0.8) > 1e-6 {
		t.Fatalf("demanding rate = %v, want pinned 0.8", allocs[1].Rate)
	}
	if math.Abs(allocs[0].Rate-0.2) > 1e-3 {
		t.Fatalf("tolerant rate = %v, want ~0.2", allocs[0].Rate)
	}
}

func TestZeroCapacityDisablesEverythingWithMinimums(t *testing.T) {
	ds := demands()
	for _, s := range allStrategies() {
		allocs := AllocateInto(s, ds, 0, new(Workspace))
		if got := totalCycles(allocs); got > 1e-9 {
			t.Errorf("%s: allocated %v cycles at zero capacity", s.Name(), got)
		}
	}
}

func TestZeroCostQueryAlwaysRuns(t *testing.T) {
	ds := []Demand{
		{Name: "free", Cycles: 0, MinRate: 0.5},
		{Name: "heavy", Cycles: 1000, MinRate: 0.1},
	}
	for _, s := range []Strategy{MMFSCPU{}, MMFSPkt{}} {
		allocs := AllocateInto(s, ds, 500, new(Workspace))
		if allocs[0].Rate == 0 {
			t.Errorf("%s: free query disabled", s.Name())
		}
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allStrategies() {
		names[s.Name()] = true
	}
	for _, want := range []string{"equal", "eq_srates", "mmfs_cpu", "mmfs_pkt"} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestInvariantsProperty(t *testing.T) {
	rng := hash.NewXorShift(1)
	f := func(n uint8, capFrac uint8) bool {
		q := int(n%8) + 1
		ds := make([]Demand, q)
		var total float64
		for i := range ds {
			ds[i] = Demand{
				Name:    string(rune('a' + i)),
				Cycles:  rng.Float64() * 1e6,
				MinRate: rng.Float64(),
			}
			total += ds[i].Cycles
		}
		capacity := total * float64(capFrac) / 255
		for _, s := range allStrategies() {
			allocs := AllocateInto(s, ds, capacity, new(Workspace))
			if totalCycles(allocs) > capacity*(1+1e-9)+1e-6 {
				return false
			}
			for i, a := range allocs {
				if a.Rate < 0 || a.Rate > 1+1e-9 {
					return false
				}
				if s.Name() != "equal" && a.Rate > 0 && a.Rate < ds[i].MinRate-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMMFSPktBeatsCPUOnMinimumRate(t *testing.T) {
	// The Chapter 5 headline: with one heavy and many light queries,
	// packet fairness yields a higher minimum sampling rate.
	ds := []Demand{{Name: "heavy", Cycles: 1000, MinRate: 0}}
	for i := 0; i < 10; i++ {
		ds = append(ds, Demand{Name: string(rune('a' + i)), Cycles: 100, MinRate: 0})
	}
	capacity := 1000.0 // half of the 2000 total
	minRate := func(allocs []Allocation) float64 {
		m := 1.0
		for _, a := range allocs {
			if a.Rate < m {
				m = a.Rate
			}
		}
		return m
	}
	cpuMin := minRate(AllocateInto(MMFSCPU{}, ds, capacity, new(Workspace)))
	pktMin := minRate(AllocateInto(MMFSPkt{}, ds, capacity, new(Workspace)))
	if pktMin <= cpuMin {
		t.Fatalf("mmfs_pkt min rate %v should exceed mmfs_cpu %v", pktMin, cpuMin)
	}
}
