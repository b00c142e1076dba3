package loadshed

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testSource returns a payload-bearing source sized for quick tests.
func testSource(seed uint64, dur time.Duration) *trace.Generator {
	return trace.NewGenerator(trace.Config{
		Seed:          seed,
		Duration:      dur,
		PacketsPerSec: 6000,
		Payload:       true,
	})
}

func stdQueries() []queries.Query {
	return queries.StandardSet(queries.Config{Seed: 11})
}

func TestReferenceRunNoDropsNoShedding(t *testing.T) {
	src := testSource(1, 5*time.Second)
	res := Reference(src, stdQueries(), 1)
	if res.TotalDrops() != 0 {
		t.Fatalf("reference run dropped %d packets", res.TotalDrops())
	}
	for _, b := range res.Bins {
		if b.GlobalRate != 1 {
			t.Fatalf("reference run sampled at %v", b.GlobalRate)
		}
	}
	if len(res.Intervals) != 5 {
		t.Fatalf("intervals = %d, want 5", len(res.Intervals))
	}
}

// TestUnderloadIsLossless: at 32 times its measured load a predictive
// MMFSPkt system never sheds, so every bin runs at rate 1 and its
// interval results are the lossless Reference's exactly. The system is
// warmed by one pass first: a cold one has no predictions for its first
// bin and admits it at coldStartRate, so its first interval differs.
func TestUnderloadIsLossless(t *testing.T) {
	const dur = 8 * time.Second
	for seed := uint64(1); seed <= 3; seed++ {
		overhead, demand := MeasureLoad(testSource(seed, dur), stdQueries(), seed)
		sys := New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Capacity: 32 * (overhead + demand), Seed: seed}, stdQueries())
		sys.Run(testSource(seed, dur))
		got := sys.Run(testSource(seed, dur))
		want := Reference(testSource(seed, dur), stdQueries(), seed)
		for i, b := range got.Bins {
			for q, r := range b.Rates {
				if r != 1 {
					t.Fatalf("seed %d, bin %d: %s ran at rate %v under a 32x budget", seed, i, got.Queries[q], r)
				}
			}
		}
		if len(got.Intervals) != len(want.Intervals) {
			t.Fatalf("seed %d: %d intervals, Reference %d", seed, len(got.Intervals), len(want.Intervals))
		}
		for i := range want.Intervals {
			if !reflect.DeepEqual(got.Intervals[i], want.Intervals[i]) {
				t.Fatalf("seed %d, interval %d: results differ from Reference's", seed, i)
			}
		}
	}
}

// overloadCapacity returns a capacity that puts the demand at roughly
// demand/capacity = factor.
func overloadCapacity(t *testing.T, seed uint64, dur time.Duration, factor float64) float64 {
	t.Helper()
	_, demand := MeasureLoad(testSource(seed, dur), stdQueries(), 99)
	if demand <= 0 {
		t.Fatal("no demand measured")
	}
	return demand / factor
}

func TestPredictiveAvoidsUncontrolledDrops(t *testing.T) {
	const dur = 20 * time.Second
	capacity := overloadCapacity(t, 3, dur, 2) // demand ≈ 2× capacity
	res := New(Config{Scheme: Predictive, Capacity: capacity, Seed: 7}, stdQueries()).
		Run(testSource(3, dur))
	drops := res.TotalDrops()
	if frac := float64(drops) / float64(res.TotalWirePkts()); frac > 0.001 {
		t.Fatalf("predictive run dropped %.3f%% of packets uncontrolled", frac*100)
	}
	// It must actually shed: overall sampling rate well below 1.
	var rates []float64
	for _, b := range res.Bins {
		rates = append(rates, b.GlobalRate)
	}
	if m := stats.Mean(rates); m > 0.9 {
		t.Fatalf("mean sampling rate %v — not shedding under 2x overload", m)
	}
}

func TestOriginalDropsUncontrolled(t *testing.T) {
	const dur = 10 * time.Second
	capacity := overloadCapacity(t, 3, dur, 2)
	res := New(Config{Scheme: Original, Capacity: capacity, Seed: 7}, stdQueries()).
		Run(testSource(3, dur))
	if frac := float64(res.TotalDrops()) / float64(res.TotalWirePkts()); frac < 0.1 {
		t.Fatalf("original scheme dropped only %.3f%% under 2x overload", frac*100)
	}
}

func TestPredictiveKeepsCPUNearBudget(t *testing.T) {
	const dur = 20 * time.Second
	capacity := overloadCapacity(t, 4, dur, 2)
	res := New(Config{Scheme: Predictive, Capacity: capacity, Seed: 9}, stdQueries()).
		Run(testSource(4, dur))
	// After warmup, total consumption should hug the capacity: the CDF
	// of Figure 4.1. Allow the rtthresh allowance plus margin.
	over := 0
	for _, b := range res.Bins[20:] {
		if b.Used+b.Overhead+b.Shed > capacity*1.3 {
			over++
		}
	}
	if frac := float64(over) / float64(len(res.Bins)-20); frac > 0.05 {
		t.Fatalf("%.1f%% of bins exceeded 1.3x capacity", frac*100)
	}
}

func TestPredictiveAccuracyBeatsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full accuracy comparison is slow")
	}
	const dur = 30 * time.Second
	capacity := overloadCapacity(t, 5, dur, 2)
	metric := stdQueries()

	ref := Reference(testSource(5, dur), stdQueries(), 50)
	run := func(s Scheme) map[string]float64 {
		res := New(Config{Scheme: s, Capacity: capacity, Seed: 51}, stdQueries()).
			Run(testSource(5, dur))
		return MeanErrors(metric, res, ref)
	}
	pred := run(Predictive)
	orig := run(Original)

	// Headline Table 4.1 claims, in relaxed form: predictive keeps
	// counter/flows errors small; original is far worse.
	if pred["counter"] > 0.05 {
		t.Errorf("predictive counter error = %v, want < 0.05", pred["counter"])
	}
	if pred["flows"] > 0.15 {
		t.Errorf("predictive flows error = %v, want < 0.15", pred["flows"])
	}
	for _, q := range []string{"counter", "application", "flows"} {
		if pred[q] >= orig[q] {
			t.Errorf("%s: predictive error %v not better than original %v", q, pred[q], orig[q])
		}
	}
}

// ddosSource recreates the adverse conditions of §4.5.5/§6.3.2: bursty
// base traffic plus a massive spoofed on/off DDoS.
func ddosSource(seed uint64, dur time.Duration) *trace.Generator {
	return trace.NewGenerator(trace.Config{
		Seed: seed, Duration: dur, PacketsPerSec: 6000, Payload: true,
		NoiseSigma: 0.35,
		Anomalies: []trace.Anomaly{
			trace.NewOnOffDDoS(dur/4, dur/2, 60000, pkt.IPv4(147, 83, 1, 1)),
		},
	})
}

func TestReactiveWorseThanPredictiveUnderDDoS(t *testing.T) {
	// The Figure 4.1/4.2 comparison point: with the thesis' 200 ms
	// buffer emulation and a massive spoofed DDoS, the reactive system
	// drops packets without control while the predictive one sheds by
	// sampling and never loses a packet.
	if testing.Short() {
		t.Skip("DDoS scheme comparison is slow")
	}
	const dur = 40 * time.Second
	_, demand := MeasureLoad(ddosSource(6, dur), stdQueries(), 60)
	capacity := demand / 2.5
	metric := stdQueries()
	ref := Reference(ddosSource(6, dur), stdQueries(), 60)

	pres := New(Config{Scheme: Predictive, Capacity: capacity, Seed: 61, BufferBins: 2}, stdQueries()).
		Run(ddosSource(6, dur))
	rres := New(Config{Scheme: Reactive, Capacity: capacity, Seed: 61, BufferBins: 2}, stdQueries()).
		Run(ddosSource(6, dur))

	if got := pres.TotalDrops(); got > pres.TotalWirePkts()/1000 {
		t.Errorf("predictive dropped %d packets uncontrolled", got)
	}
	if got := rres.TotalDrops(); got < rres.TotalWirePkts()/100 {
		t.Errorf("reactive dropped only %d/%d packets; expected substantial uncontrolled loss",
			got, rres.TotalWirePkts())
	}

	// On the queries whose output is estimable (error is not simply
	// 1 - processed fraction), predictive must win.
	pErr := MeanErrors(metric, pres, ref)
	rErr := MeanErrors(metric, rres, ref)
	var pAvg, rAvg float64
	metricQueries := []string{"application", "counter", "flows", "high-watermark", "top-k"}
	for _, q := range metricQueries {
		pAvg += pErr[q]
		rAvg += rErr[q]
	}
	if pAvg >= rAvg {
		t.Fatalf("predictive metric-query error %v not better than reactive %v", pAvg/5, rAvg/5)
	}
}

func TestStrategiesRespectMinRates(t *testing.T) {
	const dur = 10 * time.Second
	qs := queries.FullSet(queries.Config{Seed: 3})
	_, demand := MeasureLoad(testSource(7, dur), qs, 70)
	capacity := demand / 2

	for _, strat := range []sched.Strategy{sched.MMFSCPU{}, sched.MMFSPkt{}} {
		res := New(Config{
			Scheme: Predictive, Capacity: capacity, Seed: 71,
			Strategy: strat, CustomShedding: true,
		}, queries.FullSet(queries.Config{Seed: 3})).Run(testSource(7, dur))
		minRates := map[string]float64{}
		for _, q := range qs {
			minRates[q.Name()] = q.MinRate()
		}
		for _, b := range res.Bins[20:] {
			for qi, r := range b.Rates {
				name := res.Queries[qi]
				if r > 0 && r < minRates[name]-1e-9 && name != "p2p-detector" {
					t.Fatalf("%s: %s ran at %v below its minimum %v", strat.Name(), name, r, minRates[name])
				}
			}
		}
	}
}

func TestIntervalCountsMatchBetweenRuns(t *testing.T) {
	const dur = 7 * time.Second
	ref := Reference(testSource(8, dur), stdQueries(), 80)
	res := New(Config{Scheme: Predictive, Capacity: 3e7, Seed: 81}, stdQueries()).
		Run(testSource(8, dur))
	if len(ref.Intervals) != len(res.Intervals) {
		t.Fatalf("interval counts differ: %d vs %d", len(ref.Intervals), len(res.Intervals))
	}
}

func TestAccuraciesGateOnMinRate(t *testing.T) {
	const dur = 10 * time.Second
	qs := queries.FullSet(queries.Config{Seed: 4})
	_, demand := MeasureLoad(testSource(9, dur), qs, 90)
	ref := Reference(testSource(9, dur), queries.FullSet(queries.Config{Seed: 4}), 90)
	res := New(Config{
		Scheme: Predictive, Capacity: demand / 4, Seed: 91,
		Strategy: sched.EqualRates{RespectMinRates: true}, CustomShedding: true,
	}, queries.FullSet(queries.Config{Seed: 4})).Run(testSource(9, dur))
	accs := Accuracies(qs, res, ref, 10)
	for name, as := range accs {
		for _, a := range as {
			if a < 0 || a > 1 {
				t.Fatalf("%s accuracy %v out of [0,1]", name, a)
			}
		}
	}
	// super-sources has mq=0.93: under 4x overload with eq_srates it is
	// usually disabled, so its accuracy collapses to 0 in most intervals.
	if m := stats.Mean(accs["super-sources"]); m > 0.5 {
		t.Logf("note: super-sources mean accuracy %v (expected low under 4x eq_srates)", m)
	}
}

// TestAccuraciesArrivalSharingAName: Config.Arrivals may add a query
// under a resident query's name. The arrival has no reference column,
// so the resident's accuracies stand — and its rates, absent from the
// bins before it joined, are never read (that used to index past them).
func TestAccuraciesArrivalSharingAName(t *testing.T) {
	const dur = 3 * time.Second
	res := New(Config{Scheme: Predictive, Capacity: 3e6, Seed: 5, Arrivals: []Arrival{
		{AtBin: 12, Make: func() queries.Query { return queries.NewCounter(queries.Config{Seed: 4}) }},
	}}, stdQueries()).Run(testSource(2, dur))
	ref := Reference(testSource(2, dur), stdQueries(), 5)
	if got := Accuracies(stdQueries(), res, ref, 10)["counter"]; len(got) != len(ref.Intervals) {
		t.Fatalf("resident counter has %d accuracies, want one per interval (%d)", len(got), len(ref.Intervals))
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{Predictive: "predictive", Reactive: "reactive", Original: "original", NoShed: "no_lshed", Scheme(9): "unknown"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestNewPanicsOnEmptyQueries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, nil)
}

func TestNewPanicsOnMismatchedIntervals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := queries.NewCounter(queries.Config{Interval: time.Second})
	b := queries.NewCounter(queries.Config{Interval: 2 * time.Second})
	New(Config{}, []queries.Query{a, b})
}

func TestMeasureDemandPositive(t *testing.T) {
	_, d := MeasureLoad(testSource(10, 2*time.Second), stdQueries(), 100)
	if d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("demand = %v", d)
	}
}
