package loadshed_test

import (
	"math"
	"testing"
	"time"

	"repro/pkg/loadshed"
)

// TestAPIEndToEnd exercises the public API the README advertises:
// generate traffic, size a budget, run the monitor, compare against a
// reference.
func TestAPIEndToEnd(t *testing.T) {
	mkSrc := func() loadshed.Source {
		return loadshed.NewGenerator(loadshed.CESCA2(1, 5*time.Second, 0.05))
	}
	mkQs := func() []loadshed.Query { return loadshed.StandardQueries(loadshed.QueryConfig{Seed: 1}) }

	capacity := loadshed.CapacityForOverload(mkSrc(), mkQs(), 2, 2)
	if capacity <= 0 {
		t.Fatalf("capacity = %v", capacity)
	}
	mon := loadshed.New(loadshed.Config{
		Scheme:   loadshed.Predictive,
		Capacity: capacity,
		Strategy: loadshed.MMFSPkt(),
		Seed:     2,
	}, mkQs())
	res := mon.Run(mkSrc())
	if len(res.Bins) != 50 {
		t.Fatalf("bins = %d, want 50", len(res.Bins))
	}
	ref := loadshed.Reference(mkSrc(), mkQs(), 2)
	errs := loadshed.MeanErrors(mkQs(), res, ref)
	if len(errs) != 7 {
		t.Fatalf("errors for %d queries, want 7", len(errs))
	}
	if errs["counter"] > 0.25 {
		t.Errorf("counter error %v implausibly high for 2x overload", errs["counter"])
	}
	if res.TotalDrops() > res.TotalWirePkts()/100 {
		t.Errorf("run dropped %d packets", res.TotalDrops())
	}
}

func TestAPIStrategiesAndQueries(t *testing.T) {
	for _, s := range []loadshed.Strategy{loadshed.EqualRates(false), loadshed.EqualRates(true), loadshed.MMFSCPU(), loadshed.MMFSPkt()} {
		if s.Name() == "" {
			t.Error("strategy with empty name")
		}
	}
	if len(loadshed.AllQueries(loadshed.QueryConfig{})) != 10 {
		t.Error("AllQueries should return ten queries")
	}
	if loadshed.NewSelfishP2P(loadshed.QueryConfig{}).Name() != "p2p-detector-selfish" {
		t.Error("selfish wrapper name wrong")
	}
}

func TestAPIMeasureHelpers(t *testing.T) {
	src := loadshed.NewGenerator(loadshed.TraceConfig{Seed: 3, Duration: 2 * time.Second, PacketsPerSec: 3000})
	qs := loadshed.StandardQueries(loadshed.QueryConfig{Seed: 3})
	_, d := loadshed.MeasureLoad(src, qs, 4)
	c := loadshed.MeasureCapacity(src, qs, 4)
	if !(c > d && d > 0) {
		t.Fatalf("capacity %v should exceed demand %v > 0", c, d)
	}
}

// TestPresetConfigRefusesBadScale holds the adoption path's traffic
// source to a finite, bounded scale: a NaN scale once passed the
// generator's scale <= 0 check and left its Poisson draw looping
// forever, so the first batch never returned. The NaN case runs the
// batch under a deadline, the others only ask for the config.
func TestPresetConfigRefusesBadScale(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		cfg, err := loadshed.PresetConfig("cesca2", 1, 10*time.Second, math.NaN())
		if err == nil {
			loadshed.NewGenerator(cfg).NextBatch()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("PresetConfig accepted a NaN scale")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a NaN-scale preset's first batch did not return within 3 s")
	}
	for _, scale := range []float64{math.Inf(1), math.Inf(-1), 1e9} {
		if _, err := loadshed.PresetConfig("cesca2", 1, 10*time.Second, scale); err == nil {
			t.Errorf("PresetConfig accepted scale %v", scale)
		}
	}
	for _, scale := range []float64{0, 0.1, 1, 100} {
		if _, err := loadshed.PresetConfig("cesca2", 1, 10*time.Second, scale); err != nil {
			t.Errorf("PresetConfig refused scale %v: %v", scale, err)
		}
	}
	spec := loadshed.ShardSpec{Scheme: "predictive", Capacity: math.NaN(), Queries: []loadshed.QuerySpec{{Kind: "counter"}}}
	if _, err := spec.NewSystem(); err == nil {
		t.Error("ShardSpec.NewSystem accepted a NaN capacity")
	}
}
