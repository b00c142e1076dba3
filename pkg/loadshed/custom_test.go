package loadshed

import (
	"testing"
	"time"

	"repro/internal/custom"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// p2pSource produces payload traffic with plenty of P2P flows.
func p2pSource(seed uint64, dur time.Duration) *trace.Generator {
	return trace.NewGenerator(trace.Config{
		Seed: seed, Duration: dur, PacketsPerSec: 6000,
		Payload: true, P2PFrac: 0.15,
	})
}

// newBuggyP2P returns a p2p-detector whose shedding implementation is
// broken (§6.3.5).
func newBuggyP2P(cfg QueryConfig) Query {
	return custom.NewBuggy(queries.NewP2PDetector(cfg))
}

// p2pWith runs the p2p-detector alongside a counter under overload and
// returns the detector's mean accuracy error.
func p2pWith(t *testing.T, dur time.Duration, customShed bool, method func(queries.Query) queries.Query) float64 {
	t.Helper()
	mk := func() []queries.Query {
		qs := []queries.Query{
			queries.NewP2PDetector(queries.Config{Seed: 2}),
			queries.NewCounter(queries.Config{Seed: 2}),
		}
		if method != nil {
			qs[0] = method(qs[0])
		}
		return qs
	}
	_, demand := MeasureLoad(p2pSource(21, dur), mk(), 12)
	ref := Reference(p2pSource(21, dur), mk(), 12)
	res := New(Config{
		Scheme:         Predictive,
		Capacity:       demand / 2,
		Seed:           13,
		Strategy:       sched.MMFSPkt{},
		CustomShedding: customShed,
	}, mk()).Run(p2pSource(21, dur))
	name := res.Queries[0]
	metric := queries.NewP2PDetector(queries.Config{Seed: 2})
	byName := map[string][]float64{}
	for qi, n := range res.Queries {
		if n != name {
			continue
		}
		for iv := range res.Intervals {
			e := metric.Error(res.Intervals[iv].Results[qi], ref.Intervals[iv].Results[0])
			byName[n] = append(byName[n], e)
		}
	}
	var sum float64
	for _, e := range byName[name] {
		sum += e
	}
	return sum / float64(len(byName[name]))
}

func TestCustomSheddingBeatsPacketSamplingForP2P(t *testing.T) {
	if testing.Short() {
		t.Skip("custom-shedding comparison is slow")
	}
	const dur = 20 * time.Second
	// With custom shedding: the detector degrades to the port heuristic
	// for uninspected flows.
	customErr := p2pWith(t, dur, true, nil)
	// Without custom shedding support the system falls back to packet
	// sampling (Method()==Custom uses the packet sampler path).
	sampledErr := p2pWith(t, dur, false, nil)
	if customErr >= sampledErr {
		t.Fatalf("custom shedding error %v not better than packet sampling %v", customErr, sampledErr)
	}
	if customErr > 0.5 {
		t.Errorf("custom shedding error %v unexpectedly high", customErr)
	}
}

func TestSelfishQueryGetsContained(t *testing.T) {
	const dur = 20 * time.Second
	mk := func() []queries.Query {
		return []queries.Query{
			custom.NewSelfish(queries.NewP2PDetector(queries.Config{Seed: 3})),
			queries.NewCounter(queries.Config{Seed: 3}),
			queries.NewFlows(queries.Config{Seed: 3}),
		}
	}
	_, demand := MeasureLoad(p2pSource(31, dur), mk(), 14)
	sys := New(Config{
		Scheme:         Predictive,
		Capacity:       demand / 2.5,
		Seed:           15,
		Strategy:       sched.MMFSPkt{},
		CustomShedding: true,
	}, mk())
	res := sys.Run(p2pSource(31, dur))

	// The selfish clone must be contained: either explicitly policed
	// (audit violations) or starved by the scheduler (its inflated
	// demand makes it first in line for disabling, the §5.2.1 rule that
	// underpins the Nash equilibrium). Either way it may not keep
	// consuming the CPU.
	selfIdx := 0
	var selfCycles, totalCycles float64
	for _, b := range res.Bins[20:] {
		selfCycles += b.QueryUsed[selfIdx]
		totalCycles += b.Used
	}
	policed := sys.qs[selfIdx].shed.Mode() != custom.ModeCustom
	starved := selfCycles < 0.1*totalCycles
	if !policed && !starved {
		t.Fatalf("selfish query neither policed nor starved: %.0f of %.0f cycles",
			selfCycles, totalCycles)
	}

	// And the compliant queries must still be served: counter accuracy
	// stays high despite the selfish neighbour.
	ref := Reference(p2pSource(31, dur), mk(), 14)
	metric := []queries.Query{
		custom.NewSelfish(queries.NewP2PDetector(queries.Config{Seed: 3})),
		queries.NewCounter(queries.Config{Seed: 3}),
		queries.NewFlows(queries.Config{Seed: 3}),
	}
	errs := MeanErrors(metric, res, ref)
	if errs["counter"] > 0.1 {
		t.Errorf("counter error %v with selfish neighbour, want < 0.1", errs["counter"])
	}
}

func TestBuggyQueryGetsContained(t *testing.T) {
	const dur = 20 * time.Second
	mk := func() []queries.Query {
		return []queries.Query{
			custom.NewBuggy(queries.NewP2PDetector(queries.Config{Seed: 4})),
			queries.NewCounter(queries.Config{Seed: 4}),
		}
	}
	_, demand := MeasureLoad(p2pSource(41, dur), mk(), 16)
	sys := New(Config{
		Scheme:         Predictive,
		Capacity:       demand / 3,
		Seed:           17,
		Strategy:       sched.MMFSPkt{},
		CustomShedding: true,
	}, mk())
	res := sys.Run(p2pSource(41, dur))
	// Contained like the selfish clone: policed or starved.
	var buggyCycles, totalCycles float64
	for _, b := range res.Bins[20:] {
		buggyCycles += b.QueryUsed[0]
		totalCycles += b.Used
	}
	policed := sys.qs[0].shed.Mode() != custom.ModeCustom
	starved := buggyCycles < 0.15*totalCycles
	if !policed && !starved {
		t.Fatalf("buggy query neither policed nor starved: %.0f of %.0f cycles",
			buggyCycles, totalCycles)
	}
}

func TestCompliantCustomQueryStaysCustomInSystem(t *testing.T) {
	const dur = 20 * time.Second
	mk := func() []queries.Query {
		return []queries.Query{
			queries.NewP2PDetector(queries.Config{Seed: 5}),
			queries.NewCounter(queries.Config{Seed: 5}),
		}
	}
	_, demand := MeasureLoad(p2pSource(51, dur), mk(), 18)
	sys := New(Config{
		Scheme:         Predictive,
		Capacity:       demand / 2,
		Seed:           19,
		Strategy:       sched.MMFSPkt{},
		CustomShedding: true,
	}, mk())
	sys.Run(p2pSource(51, dur))
	for _, rq := range sys.qs {
		if rq.shed != nil && rq.shed.Mode() != custom.ModeCustom {
			t.Fatalf("compliant p2p-detector was policed: %v", rq.shed.Mode())
		}
	}
}
