package loadshed

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/trace"
)

// streamCfg is a predictive setup overloaded enough to exercise
// sampling, re-extraction and the buffer model.
func streamCfg(seed uint64) Config {
	return Config{Scheme: Predictive, Capacity: 4e6, BufferBins: 2, Seed: seed, Strategy: MMFSPkt()}
}

// TestRunRecordsAreOwned guards the collector's copy/take: two Runs of
// one warmed System return records that share no backing array with
// each other or with the engine, so a later run (retained or streamed)
// cannot reach into an earlier RunResult — and each carries exactly the
// values an identically driven twin System delivers borrowed. (The two
// Runs differ from each other: predictors and RNG streams carry over.)
func TestRunRecordsAreOwned(t *testing.T) {
	mkSys := func() *System { return New(streamCfg(31), queries.FullSet(queries.Config{Seed: 31})) }
	src := testSource(8, 3*time.Second)
	sys, twin := mkSys(), mkSys()
	sys.Stream(src, nil) // warm: the engine now holds storage it would recycle
	twin.Stream(src, nil)
	a := sys.Run(src)
	da := digest(a)
	b := sys.Run(src)
	sys.Stream(testSource(9, 3*time.Second), NewRollingStats(50))

	var ta, tb records
	twin.Stream(src, &ta)
	twin.Stream(src, &tb)
	if msg := da.diff(&ta) + digest(b).diff(&tb); msg != "" {
		t.Fatalf("retained records differ from the twin's streamed ones: %s", msg)
	}
	if msg := digest(a).diff(da); msg != "" {
		t.Fatalf("later runs of the same System mutated a returned RunResult: %s", msg)
	}
	// Every per-query slice of every bin of both runs has its own array.
	owner := map[*float64]int{}
	for _, res := range []*RunResult{a, b} {
		for i := range res.Bins {
			bin := &res.Bins[i]
			for _, s := range [][]float64{bin.Rates, bin.QueryUsed, bin.QueryPred} {
				if j, dup := owner[&s[0]]; dup {
					t.Fatalf("bin %d shares a per-query slice with bin %d", i, j)
				}
				owner[&s[0]] = i
			}
		}
	}
	for i := range a.Intervals {
		if &a.Intervals[i].Results[0] == &b.Intervals[i].Results[0] {
			t.Fatalf("interval %d: the two runs share a Results slice", i)
		}
		for qi, r := range a.Intervals[i].Results {
			// Map- and slice-backed results are what FlushInto recycles.
			v, o := reflect.ValueOf(r), reflect.ValueOf(b.Intervals[i].Results[qi])
			if v.Kind() != reflect.Struct {
				continue
			}
			for f := range v.NumField() {
				x, y := v.Field(f), o.Field(f)
				if k := x.Kind(); (k == reflect.Map || k == reflect.Slice) && x.Len() > 0 && x.Pointer() == y.Pointer() {
					t.Fatalf("interval %d: %s results share their %s", i, v.Type(), v.Type().Field(f).Name)
				}
			}
		}
	}
}

// TestArrivalAtIntervalBoundary is the regression test for the
// boundary-flush ordering bug: a query arriving exactly at an interval
// boundary used to be added before the previous interval was flushed,
// so that interval's results grew a spurious empty report from a query
// that saw none of its traffic. The arrival must belong to the interval
// that starts at its bin.
func TestArrivalAtIntervalBoundary(t *testing.T) {
	nq := len(stdQueries())
	cfg := Config{Scheme: NoShed, Seed: 3, Arrivals: []Arrival{
		// Default query interval is 1 s = 10 bins: bin 10 is the first
		// bin of interval 1, i.e. exactly an interval boundary.
		{AtBin: 10, Make: func() queries.Query { return queries.NewCounter(queries.Config{Seed: 4}) }},
	}}
	res := New(cfg, stdQueries()).Run(testSource(6, 3*time.Second))

	if got := len(res.Intervals[0].Results); got != nq {
		t.Fatalf("interval 0 flushed %d results, want %d: a boundary arrival leaked into the closing interval", got, nq)
	}
	if got := len(res.Intervals[1].Results); got != nq+1 {
		t.Fatalf("interval 1 flushed %d results, want %d", got, nq+1)
	}
	if res.Intervals[1].Results[nq] == nil {
		t.Fatal("boundary arrival's first real interval reported nil")
	}
}

// TestRunDoesNotMutateSource enforces the consumer half of the Source
// ownership contract on the whole engine: a full overloaded run
// (sampling, flow sampling, custom shedding, buffer drops) over a
// MemorySource must leave the stored batches untouched, because
// NextBatch aliases them.
func TestRunDoesNotMutateSource(t *testing.T) {
	batches := trace.Record(testSource(7, 3*time.Second))
	packets := func() (out []sum) { // the exact digest of every batch's packets, payloads included
		for _, b := range batches {
			out = append(out, sumOf(b.Pkts))
		}
		return out
	}
	before := packets()
	cfg := streamCfg(9)
	cfg.CustomShedding = true
	New(cfg, stdQueries()).Run(trace.NewMemorySource(batches, trace.DefaultTimeBin))
	for i, s := range packets() {
		if s != before[i] {
			t.Fatalf("batch %d was mutated by the run", i)
		}
	}
}

// TestRollingStatsWindow checks the windowed aggregation arithmetic on
// a hand-built stream, including a query that joins mid-stream.
func TestRollingStatsWindow(t *testing.T) {
	r := NewRollingStats(3)
	r.OnQuery(0, "a")
	mkBin := func(wire, drop int, rate float64, rates ...float64) *BinStats {
		return &BinStats{
			Capacity: 100, WirePkts: wire, DropPkts: drop, AdmitPkts: wire - drop,
			Used: 40, Overhead: 10, Shed: 5, GlobalRate: rate, Rates: rates, BufferBins: 1.5,
		}
	}
	r.OnBin(mkBin(100, 50, 0.1, 0.1)) // will fall out of the window
	r.OnQuery(1, "b")
	r.OnBin(mkBin(100, 0, 0.2, 0.2, 1.0))
	r.OnBin(mkBin(200, 20, 0.4, 0.4, 1.0))
	r.OnBin(mkBin(300, 40, 0.6, 0.6, 1.0))
	r.OnInterval(&IntervalResults{ExportCycles: 7})

	s := r.Snapshot()
	if s.Bins != 4 || s.WindowBins != 3 || s.Intervals != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.WirePkts != 700 || s.DropPkts != 110 {
		t.Fatalf("lifetime totals: wire %d drops %d", s.WirePkts, s.DropPkts)
	}
	if want := float64(600) / 3; s.PktsPerBin != want {
		t.Fatalf("PktsPerBin = %v, want %v", s.PktsPerBin, want)
	}
	if want := float64(60) / 600; s.DropFrac != want {
		t.Fatalf("DropFrac = %v, want %v", s.DropFrac, want)
	}
	if want := (0.2 + 0.4 + 0.6) / 3; math.Abs(s.MeanGlobalRate-want) > 1e-12 {
		t.Fatalf("MeanGlobalRate = %v, want %v", s.MeanGlobalRate, want)
	}
	// Unsampled: Σ (1-rate)*admit / Σ admit over the window.
	admits := []float64{100, 180, 260}
	wantUn := (0.8*admits[0] + 0.6*admits[1] + 0.4*admits[2]) / (admits[0] + admits[1] + admits[2])
	if math.Abs(s.UnsampledFrac-wantUn) > 1e-12 {
		t.Fatalf("UnsampledFrac = %v, want %v", s.UnsampledFrac, wantUn)
	}
	if want := 55.0 / 100; math.Abs(s.MeanUtil-want) > 1e-12 {
		t.Fatalf("MeanUtil = %v, want %v", s.MeanUtil, want)
	}
	if len(s.MeanRates) != 2 || math.Abs(s.MeanRates[0]-0.4) > 1e-12 || math.Abs(s.MeanRates[1]-1.0) > 1e-12 {
		t.Fatalf("MeanRates = %v", s.MeanRates)
	}
	if s.ExportCycles != 7 {
		t.Fatalf("ExportCycles = %v", s.ExportCycles)
	}
}

// retainedBytes reports how much live heap a run leaves behind,
// measured with the run's product kept reachable.
func retainedBytes(run func() any) int64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := run()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// TestStreamBoundedMemory is the tentpole acceptance check: growing the
// run 8x grows the legacy Run path's retained memory roughly linearly,
// while Stream into a RollingStats sink stays flat.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory growth measurement")
	}
	gen := func(bins int) *trace.Generator {
		return trace.NewGenerator(trace.Config{Seed: 12, MaxBins: bins, PacketsPerSec: 2000})
	}
	mkSys := func() *System {
		cfg := streamCfg(13)
		cfg.Workers = 1 // keep pool goroutines out of the heap measurement
		return New(cfg, stdQueries())
	}
	const short, long = 200, 1600

	legacyShort := retainedBytes(func() any { return mkSys().Run(gen(short)) })
	legacyLong := retainedBytes(func() any { return mkSys().Run(gen(long)) })
	streamShort := retainedBytes(func() any {
		roll := NewRollingStats(100)
		mkSys().Stream(gen(short), roll)
		return roll
	})
	streamLong := retainedBytes(func() any {
		roll := NewRollingStats(100)
		mkSys().Stream(gen(long), roll)
		return roll
	})
	t.Logf("retained bytes: legacy %d -> %d, stream %d -> %d", legacyShort, legacyLong, streamShort, streamLong)

	if legacyLong < 4*legacyShort {
		t.Errorf("legacy path retained %d then %d bytes; expected roughly linear growth (the baseline this PR escapes)", legacyShort, legacyLong)
	}
	// The streaming path must not grow with the run. Allow generous
	// absolute slack for GC noise; the legacy path at the same length
	// retains hundreds of KB more.
	const slack = 64 << 10
	if streamLong > streamShort+slack {
		t.Errorf("stream path grew from %d to %d retained bytes over an 8x longer run", streamShort, streamLong)
	}
	if streamLong > legacyLong/4 {
		t.Errorf("stream path retained %d bytes, legacy %d; expected at least 4x separation", streamLong, legacyLong)
	}
}

// TestStreamUnboundedSourceStops sanity-checks that a Stream over an
// unbounded generator is driven by the consumer: we stop it by capping
// the source, not by trusting Duration.
func TestStreamUnboundedSourceStops(t *testing.T) {
	cfg := trace.Config{Seed: 14, MaxBins: 25, PacketsPerSec: 1000, Duration: time.Second}
	bins := 0
	New(Config{Scheme: NoShed, Seed: 1}, stdQueries()).
		Stream(trace.NewGenerator(cfg), SinkFuncs{Bin: func(*BinStats) { bins++ }})
	if bins != 25 {
		t.Fatalf("streamed %d bins, want 25 (MaxBins must override Duration)", bins)
	}
}

// Sink shapes of the long-run measurements: what System.Stream is handed
// (longRetain selects Run instead).
const (
	longRolling = iota // a bare RollingStats
	longTee            // Tee(RollingStats, SinkFuncs) — lsd -stream's shape
	longFuncs          // a bare SinkFuncs — MeasureLoad's shape
	longRetain         // Run
)

// longSink builds the sink of a long-run shape; the SinkFuncs callback
// reads the record's per-query slice so it is not an empty stand-in.
func longSink(shape int) Sink {
	var rateSum float64
	funcs := SinkFuncs{Bin: func(b *BinStats) { rateSum += b.Rates[0] }}
	switch shape {
	case longTee:
		return Tee(NewRollingStats(100), funcs)
	case longFuncs:
		return funcs
	}
	return NewRollingStats(100)
}

// longRun is the body of the long-run memory benchmarks: a fresh
// sequential system over a generated trace of the given length, either
// streamed into a bounded sink of the given shape or retained whole by
// Run.
func longRun(bins, shape int) {
	cfg := streamCfg(15)
	cfg.Workers = 1
	src := trace.NewGenerator(trace.Config{Seed: 16, MaxBins: bins, PacketsPerSec: 2000})
	if shape == longRetain {
		_ = New(cfg, stdQueries()).Run(src)
	} else {
		New(cfg, stdQueries()).Stream(src, longSink(shape))
	}
}

// BenchmarkStreamLongRun and BenchmarkRunLongRun expose the hot-path
// allocation difference under -benchmem: the streaming path's
// allocations per bin stay constant while the legacy path's grow with
// everything it retains.
func BenchmarkStreamLongRun(b *testing.B) { benchLongRun(b, longRolling) }
func BenchmarkRunLongRun(b *testing.B)    { benchLongRun(b, longRetain) }

func benchLongRun(b *testing.B, shape int) {
	bins := 600
	if testing.Short() {
		bins = 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		longRun(bins, shape)
	}
}

// TestLongRunAllocCaps bounds what a 600-bin run allocates, trace
// generation included — the -benchmem columns of the two benchmarks
// above as a test. The caps are the measured values (12,210 allocs and
// 18.81 MB streamed; 14,273 allocs and 19.49 MB retained; identical at
// GOMAXPROCS 1 and 2) times 1.35 for counts and 1.5 for bytes: byte
// totals move with map growth in the queries, counts barely move at
// all, and either cap catches a per-bin or per-packet allocation
// creeping into the loop (one extra allocation per bin is +600). The
// Tee shape runs under the stream cap: what a sink is made of does not
// change what the engine allocates.
func TestLongRunAllocCaps(t *testing.T) {
	for _, c := range []struct {
		name             string
		shape            int
		maxAllocs, maxMB float64
	}{
		{"stream", longRolling, 12210 * 1.35, 18.81 * 1.5},
		{"stream-tee", longTee, 12210 * 1.35, 18.81 * 1.5},
		{"run", longRetain, 14273 * 1.35, 19.49 * 1.5},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		longRun(600, c.shape)
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs - before.Mallocs)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("%s: 600 bins allocated %.0f objects, %.2f MB", c.name, allocs, mb)
		if allocs > c.maxAllocs || mb > c.maxMB {
			t.Errorf("%s: 600 bins allocated %.0f objects, %.2f MB; caps %.0f, %.2f MB", c.name, allocs, mb, c.maxAllocs, c.maxMB)
		}
	}
}

// TestStreamAllocsIndependentOfSinkShape pins the one record path from
// the allocation side: a warmed System allocates the same per bin
// whatever its sink is made of — a RollingStats, a Tee of one with a
// SinkFuncs, a bare SinkFuncs — because record storage is the engine's
// to reuse, not the sink's to keep. What remains is per flush, not per
// bin, and identical.
func TestStreamAllocsIndependentOfSinkShape(t *testing.T) {
	batches := trace.Record(testSource(19, 30*time.Second))
	src := trace.NewMemorySource(batches, trace.DefaultTimeBin)
	perBin := func(shape int) float64 {
		cfg := streamCfg(23)
		cfg.Workers = 1
		sys := New(cfg, stdQueries())
		sink := longSink(shape)
		for i := 0; i < 3; i++ { // fill scratch buffers and the predictors' history rings
			sys.Stream(src, sink)
		}
		return testing.AllocsPerRun(3, func() { sys.Stream(src, sink) }) / float64(len(batches))
	}
	base := perBin(longRolling)
	for _, c := range []struct {
		name  string
		shape int
	}{{"tee", longTee}, {"funcs", longFuncs}} {
		got := perBin(c.shape)
		t.Logf("allocs/bin over %d warmed bins: rolling %.2f, %s %.2f", len(batches), base, c.name, got)
		if math.Abs(got-base) > 0.5 {
			t.Errorf("%s sink: %.2f allocs/bin, RollingStats %.2f: the sink's shape changed what the engine allocates", c.name, got, base)
		}
	}
}
