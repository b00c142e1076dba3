package loadshed

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/trace"
)

// streamCfg is a predictive setup overloaded enough to exercise
// sampling, re-extraction and the buffer model.
func streamCfg(seed uint64) Config {
	return Config{Scheme: Predictive, Capacity: 4e6, BufferBins: 2, Seed: seed, Strategy: MMFSPkt()}
}

// TestStreamMatchesRun pins the tentpole invariant: Run is Stream into
// slices. A hand-rolled collecting sink must reproduce Run's record
// bit for bit, mid-run arrivals included.
func TestStreamMatchesRun(t *testing.T) {
	mkSys := func() *System {
		cfg := streamCfg(6)
		cfg.Arrivals = []Arrival{{AtBin: 7, Make: func() queries.Query {
			return queries.NewCounter(queries.Config{Seed: 99})
		}}}
		return New(cfg, stdQueries())
	}
	want := mkSys().Run(testSource(3, 4*time.Second))

	got := &RunResult{Scheme: Predictive}
	mkSys().Stream(testSource(3, 4*time.Second), SinkFuncs{
		Query:    func(_ int, name string) { got.Queries = append(got.Queries, name) },
		Bin:      func(b *BinStats) { got.Bins = append(got.Bins, *b) },
		Interval: func(iv *IntervalResults) { got.Intervals = append(got.Intervals, *iv) },
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Stream with a collecting sink diverged from Run")
	}
	if len(want.Queries) != len(stdQueries())+1 {
		t.Fatalf("arrival missing from query list: %v", want.Queries)
	}
}

// TestClusterStreamMatchesRun does the same for the sharded engine,
// coordinator active.
func TestClusterStreamMatchesRun(t *testing.T) {
	mkCluster := func() *Cluster {
		links := SplitFlows(testSource(4, 3*time.Second), 2, 5)
		shards := make([]Shard, len(links))
		for i, l := range links {
			shards[i] = Shard{Source: l, Queries: stdQueries()}
		}
		return NewCluster(ClusterConfig{
			Base:          Config{Scheme: Predictive, Seed: 8, Strategy: MMFSPkt()},
			TotalCapacity: 6e6,
			ShardPolicy:   MMFSCPU(),
		}, shards)
	}
	want := mkCluster().Run()

	got := make([]*RunResult, 2)
	mkCluster().Stream(func(i int, _ string) Sink {
		got[i] = &RunResult{Scheme: Predictive}
		return SinkFuncs{
			Query:    func(_ int, name string) { got[i].Queries = append(got[i].Queries, name) },
			Bin:      func(b *BinStats) { got[i].Bins = append(got[i].Bins, *b) },
			Interval: func(iv *IntervalResults) { got[i].Intervals = append(got[i].Intervals, *iv) },
		}
	})
	for i := range got {
		if !reflect.DeepEqual(got[i], want.Shards[i].Result) {
			t.Fatalf("shard %d: Stream diverged from Run", i)
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
	copies := make([]pkt.Batch, len(batches))
	for i, b := range batches {
		copies[i] = pkt.Batch{Start: b.Start, Bin: b.Bin, Pkts: append([]pkt.Packet(nil), b.Pkts...)}
		for j := range b.Pkts {
			copies[i].Pkts[j].Payload = append([]byte(nil), b.Pkts[j].Payload...)
		}
	}
	src := trace.NewMemorySource(batches, trace.DefaultTimeBin)

	cfg := streamCfg(9)
	cfg.CustomShedding = true
	New(cfg, stdQueries()).Run(src)

	for i := range batches {
		if len(batches[i].Pkts) != len(copies[i].Pkts) {
			t.Fatalf("batch %d length changed", i)
		}
		for j := range batches[i].Pkts {
			a, b := batches[i].Pkts[j], copies[i].Pkts[j]
			pa, pb := a.Payload, b.Payload
			a.Payload, b.Payload = nil, nil
			if !reflect.DeepEqual(a, b) || string(pa) != string(pb) {
				t.Fatalf("batch %d packet %d was mutated by the run", i, j)
			}
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

// longRun is the body of the long-run memory benchmarks: a fresh
// sequential system over a generated trace of the given length, either
// streamed into a bounded rolling window or retained whole by Run.
func longRun(bins int, stream bool) {
	cfg := streamCfg(15)
	cfg.Workers = 1
	src := trace.NewGenerator(trace.Config{Seed: 16, MaxBins: bins, PacketsPerSec: 2000})
	if stream {
		New(cfg, stdQueries()).Stream(src, NewRollingStats(100))
	} else {
		_ = New(cfg, stdQueries()).Run(src)
	}
}

// BenchmarkStreamLongRun and BenchmarkRunLongRun expose the hot-path
// allocation difference under -benchmem: the streaming path's
// allocations per bin stay constant while the legacy path's grow with
// everything it retains.
func BenchmarkStreamLongRun(b *testing.B) { benchLongRun(b, true) }
func BenchmarkRunLongRun(b *testing.B)    { benchLongRun(b, false) }

func benchLongRun(b *testing.B, stream bool) {
	bins := 600
	if testing.Short() {
		bins = 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		longRun(bins, stream)
	}
}

// TestLongRunAllocCaps bounds what a 600-bin run allocates, trace
// generation included — the -benchmem columns of the two benchmarks
// above as a test. The caps are the measured values (12,210 allocs and
// 18.81 MB streamed; 14,273 allocs and 19.49 MB retained; identical at
// GOMAXPROCS 1 and 2) times 1.35 for counts and 1.5 for bytes: byte
// totals move with map growth in the queries, counts barely move at
// all, and either cap catches a per-bin or per-packet allocation
// creeping into the loop (one extra allocation per bin is +600).
func TestLongRunAllocCaps(t *testing.T) {
	for _, c := range []struct {
		name             string
		stream           bool
		maxAllocs, maxMB float64
	}{
		{"stream", true, 12210 * 1.35, 18.81 * 1.5},
		{"run", false, 14273 * 1.35, 19.49 * 1.5},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		longRun(600, c.stream)
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs - before.Mallocs)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		if allocs > c.maxAllocs || mb > c.maxMB {
			t.Errorf("%s: 600 bins allocated %.0f objects, %.2f MB; caps %.0f, %.2f MB", c.name, allocs, mb, c.maxAllocs, c.maxMB)
		}
	}
}

// digestSink is a TransientSink that folds every record into running
// digests without retaining anything — the harness for proving that the
// recycling fast path (FlushInto, reused BinStats slices) delivers
// exactly the values the allocating Run path does.
type digestSink struct {
	bins      float64
	intervals float64
}

func (d *digestSink) OnQuery(int, string) {}

func (d *digestSink) OnBin(b *BinStats) {
	d.bins += b.Used + b.Alloc + b.Predicted + b.Overhead + b.Shed + float64(b.AdmitPkts+b.DropPkts)
	for i, r := range b.Rates {
		d.bins += r * float64(i+1)
		d.bins += b.QueryUsed[i]*0.5 + b.QueryPred[i]*0.25
	}
}

func (d *digestSink) OnInterval(iv *IntervalResults) {
	d.intervals += iv.ExportCycles
	for qi, r := range iv.Results {
		d.intervals += resultDigest(r) * float64(qi+1)
	}
}

func (*digestSink) SinkTransient() bool { return true }

// resultDigest reduces a query result to an order-independent number.
func resultDigest(r queries.Result) float64 {
	switch v := r.(type) {
	case nil:
		return -1
	case queries.FlowsResult:
		return v.Flows
	case queries.CounterResult:
		return v.Packets + v.Bytes
	case queries.HighWatermarkResult:
		return v.WatermarkBytes
	case queries.TraceResult:
		return v.Packets + v.Bytes
	case queries.PatternResult:
		return v.Processed + v.Matches
	case queries.ApplicationResult:
		var s float64
		for _, c := range v.Apps {
			s += c.Packets + c.Bytes
		}
		return s
	case queries.TopKResult:
		var s float64
		for i, e := range v.List {
			s += float64(i+1) * (float64(e.IP) + e.Bytes)
		}
		s += float64(len(v.All))
		return s
	case queries.AutofocusResult:
		var s float64
		for i, c := range v.Clusters {
			s += float64(i+1) * (float64(c.Prefix) + float64(c.Len) + c.Bytes)
		}
		return s + v.Total
	case queries.SuperSourcesResult:
		var s float64
		for i, e := range v.Top {
			s += float64(i+1) * (float64(e.IP) + e.FanOut)
		}
		s += float64(len(v.All))
		return s
	case queries.P2PResult:
		var s float64
		for k := range v.Detected {
			s += float64(k[0]) + float64(k[5]) + float64(k[12])
		}
		return s + v.Count
	default:
		return math.NaN()
	}
}

// digestRun folds an already-collected RunResult through the same
// digests as digestSink.
func digestRun(res *RunResult) (bins, intervals float64) {
	var d digestSink
	for i := range res.Bins {
		d.OnBin(&res.Bins[i])
	}
	for i := range res.Intervals {
		d.OnInterval(&res.Intervals[i])
	}
	return d.bins, d.intervals
}

// TestTransientStreamMatchesRun pins the recycling fast path: a Stream
// into a transient sink — which makes the engine reuse Stats slices and
// recycle interval results through FlushInto — must produce exactly the
// per-bin and per-interval values of the allocating Run path, custom
// shedding and mid-run arrivals included.
func TestTransientStreamMatchesRun(t *testing.T) {
	mkSys := func() *System {
		cfg := streamCfg(21)
		cfg.CustomShedding = true
		cfg.Arrivals = []Arrival{{AtBin: 13, Make: func() queries.Query {
			return queries.NewCounter(queries.Config{Seed: 4})
		}}}
		return New(cfg, queries.FullSet(queries.Config{Seed: 21}))
	}
	want := mkSys().Run(testSource(5, 5*time.Second))
	wantBins, wantIvs := digestRun(want)

	var got digestSink
	mkSys().Stream(testSource(5, 5*time.Second), &got)
	if got.bins != wantBins || got.intervals != wantIvs {
		t.Fatalf("transient stream diverged from Run: bins %v vs %v, intervals %v vs %v",
			got.bins, wantBins, got.intervals, wantIvs)
	}
}

// TestRunResultSurvivesLaterTransientStream is the regression test for
// the slice-harvest bug: a RunResult returned by a System must stay
// intact when the same System later streams into a transient sink,
// whose runs recycle the per-bin Stats slices. Before the fix the
// recycling pass harvested the slices the retained last bin still
// referenced and overwrote them in place.
func TestRunResultSurvivesLaterTransientStream(t *testing.T) {
	sys := New(streamCfg(31), stdQueries())
	res := sys.Run(testSource(8, 3*time.Second))
	last := res.Bins[len(res.Bins)-1]
	rates := append([]float64(nil), last.Rates...)
	used := append([]float64(nil), last.QueryUsed...)
	pred := append([]float64(nil), last.QueryPred...)

	sys.Stream(testSource(9, 3*time.Second), NewRollingStats(50))

	if !reflect.DeepEqual(last.Rates, rates) ||
		!reflect.DeepEqual(last.QueryUsed, used) ||
		!reflect.DeepEqual(last.QueryPred, pred) {
		t.Fatal("a later transient-sink Stream mutated the retained RunResult's per-bin slices")
	}
}
