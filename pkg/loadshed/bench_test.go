package loadshed_test

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (one Benchmark per experiment id, named after the artifact)
// plus micro-benchmarks of the hot paths the thesis prices out in Table
// 3.4. The experiment benches report the headline metric of their
// artifact via b.ReportMetric so `go test -bench .` doubles as a
// regression dashboard for the reproduction.
//
// Experiment benches run in Quick mode at a small traffic scale so the
// full suite completes in minutes; use cmd/lsrepro for full-scale runs.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Scale: 0.05, Dur: 8 * time.Second, Quick: true}
}

// runExperiment executes one registered experiment b.N times and
// renders it to io.Discard so the full output path is exercised.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		experiments.Render(io.Discard, res)
		last = res
	}
	return last
}

// Chapter 2.

func BenchmarkFig2_2_QueryCosts(b *testing.B) { runExperiment(b, "fig2.2") }

// Chapter 3 — prediction system.

func BenchmarkFig3_1_UnknownQueryAnatomy(b *testing.B)   { runExperiment(b, "fig3.1") }
func BenchmarkFig3_3_CPUvsPacketsScatter(b *testing.B)   { runExperiment(b, "fig3.3") }
func BenchmarkFig3_4_SLRvsMLR(b *testing.B)              { runExperiment(b, "fig3.4") }
func BenchmarkFig3_5_HistoryThresholdSweep(b *testing.B) { runExperiment(b, "fig3.5") }
func BenchmarkFig3_6_PerQuerySweep(b *testing.B)         { runExperiment(b, "fig3.6") }
func BenchmarkFig3_7_ErrOverTimeCESCA(b *testing.B)      { runExperiment(b, "fig3.7") }
func BenchmarkFig3_8_ErrOverTimeBackbone(b *testing.B)   { runExperiment(b, "fig3.8") }
func BenchmarkFig3_9_EWMAvsSLR(b *testing.B)             { runExperiment(b, "fig3.9") }
func BenchmarkFig3_10_EWMAAlpha(b *testing.B)            { runExperiment(b, "fig3.10") }
func BenchmarkFig3_11_BaselineErrOverTime(b *testing.B)  { runExperiment(b, "fig3.11") }
func BenchmarkFig3_12_MLRErrTails(b *testing.B)          { runExperiment(b, "fig3.12") }
func BenchmarkFig3_13_15_PredictorsUnderDDoS(b *testing.B) {
	runExperiment(b, "fig3.13-15")
}
func BenchmarkTable3_2_ErrByQueryAndTrace(b *testing.B) { runExperiment(b, "tab3.2") }
func BenchmarkTable3_3_MethodErrStats(b *testing.B)     { runExperiment(b, "tab3.3") }
func BenchmarkTable3_4_PredictionOverhead(b *testing.B) { runExperiment(b, "tab3.4") }

// Chapter 4 — load shedding system.

func BenchmarkFig4_1_CPUUsageCDF(b *testing.B)       { runExperiment(b, "fig4.1") }
func BenchmarkFig4_2_DropsAndUnsampled(b *testing.B) { runExperiment(b, "fig4.2") }
func BenchmarkFig4_3_AvgErrorPerScheme(b *testing.B) { runExperiment(b, "fig4.3") }
func BenchmarkFig4_4_StackedCPU(b *testing.B)        { runExperiment(b, "fig4.4") }
func BenchmarkFig4_5_6_SYNFlood(b *testing.B)        { runExperiment(b, "fig4.5-6") }
func BenchmarkTable4_1_ErrBreakdown(b *testing.B)    { runExperiment(b, "tab4.1") }

// Chapter 5 — fairness and Nash equilibrium.

func BenchmarkFig5_1_SimulatedSurface(b *testing.B)  { runExperiment(b, "fig5.1") }
func BenchmarkFig5_2_MeasuredSurface(b *testing.B)   { runExperiment(b, "fig5.2") }
func BenchmarkFig5_3_AccuracyVsRate(b *testing.B)    { runExperiment(b, "fig5.3") }
func BenchmarkFig5_4_StrategiesVsK(b *testing.B)     { runExperiment(b, "fig5.4") }
func BenchmarkFig5_5_AutofocusTimeline(b *testing.B) { runExperiment(b, "fig5.5") }
func BenchmarkTable5_2_AccuracyAtK05(b *testing.B)   { runExperiment(b, "tab5.2") }
func BenchmarkNashEquilibrium(b *testing.B)          { runExperiment(b, "nash") }

// Chapter 6 — custom load shedding.

func BenchmarkFig6_1_2_P2PSheddingMethods(b *testing.B) { runExperiment(b, "fig6.1-2") }
func BenchmarkFig6_3_ExpectedVsActual(b *testing.B)     { runExperiment(b, "fig6.3") }
func BenchmarkFig6_4_AccuracyVsSamplingRate(b *testing.B) {
	runExperiment(b, "fig6.4")
}
func BenchmarkFig6_5_CustomVsSamplingOverK(b *testing.B) { runExperiment(b, "fig6.5") }
func BenchmarkFig6_6_7_Timelines(b *testing.B)           { runExperiment(b, "fig6.6-7") }
func BenchmarkFig6_8_MassiveDDoS(b *testing.B)           { runExperiment(b, "fig6.8") }
func BenchmarkFig6_9_QueryArrivals(b *testing.B)         { runExperiment(b, "fig6.9") }
func BenchmarkFig6_10_SelfishClones(b *testing.B)        { runExperiment(b, "fig6.10") }
func BenchmarkFig6_11_BuggyClones(b *testing.B)          { runExperiment(b, "fig6.11") }
func BenchmarkFig6_12_14_OnlineExecution(b *testing.B)   { runExperiment(b, "fig6.12-14") }
func BenchmarkTable6_2_OnlineAccuracy(b *testing.B)      { runExperiment(b, "tab6.2") }

// Ablations (DESIGN.md §5): design choices isolated with the rest of
// the system fixed.

func BenchmarkAblationPredictor(b *testing.B) { runExperiment(b, "ablation-predictor") }
func BenchmarkAblationStrategy(b *testing.B)  { runExperiment(b, "ablation-strategy") }

// Micro-benchmarks: the hot-path costs Table 3.4 prices out, measured
// for real on this machine.

func benchBatch(payload bool) *trace.Generator {
	return trace.NewGenerator(trace.Config{
		Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: payload,
	})
}

func BenchmarkMicroFeatureExtraction(b *testing.B) {
	g := benchBatch(false)
	batch, _ := g.NextBatch()
	ext := features.NewExtractor(1)
	ext.StartInterval()
	ext.Extract(&batch) // warm up the scratch vector: steady state is zero-alloc
	b.SetBytes(int64(batch.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Extract(&batch)
	}
	b.ReportMetric(float64(batch.Packets()), "pkts/batch")
	b.ReportMetric(float64(batch.Packets())*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkMicroMLRFitAndPredict(b *testing.B) {
	g := benchBatch(false)
	ext := features.NewExtractor(1)
	ext.StartInterval()
	m := predict.NewMLR(predict.DefaultHistory, predict.DefaultThreshold)
	var fv features.Vector
	for i := 0; i < predict.DefaultHistory; i++ {
		batch, _ := g.NextBatch()
		fv = ext.Extract(&batch)
		m.Observe(fv, float64(batch.Packets()*1000))
	}
	m.Predict(fv) // warm up the fit scratch: steady state is zero-alloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(fv)
	}
}

func BenchmarkMicroQuerySetOnBatch(b *testing.B) {
	g := benchBatch(true)
	batch, _ := g.NextBatch()
	qs := queries.FullSet(queries.Config{})
	// Warm up tables and pools: the steady-state per-batch path is
	// allocation-free, and that is what the benchmark prices.
	for _, q := range qs {
		q.Process(&batch, 1)
	}
	b.SetBytes(int64(batch.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			q.Process(&batch, 1)
		}
	}
}

func BenchmarkMicroChangeDetector(b *testing.B) {
	// One armed detector observation: residual tests plus the windowed
	// feature-distribution distance. The detector runs on the bin path
	// of every predictive step when Config.ChangeDetection is on, so it
	// must stay allocation-free in steady state — asserted here, not
	// just reported.
	g := benchBatch(false)
	ext := features.NewExtractor(1)
	ext.StartInterval()
	batch, _ := g.NextBatch()
	fv := ext.Extract(&batch)
	det := detect.New(detect.Config{}, features.NumFeatures)
	// Prime past warmup so the residual tests are armed and both
	// distance windows are full.
	for i := 0; i < 64; i++ {
		det.Observe(fv, 0.01)
	}
	if allocs := testing.AllocsPerRun(100, func() { det.Observe(fv, 0.01) }); allocs != 0 {
		b.Fatalf("armed Observe allocates %v/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(fv, 0.01)
	}
}

func BenchmarkMicroMonitorBinChangeDetect(b *testing.B) {
	// BenchmarkMicroMonitorBin with the drift detector enabled; the
	// delta between the two prices the full detectChange stage per bin
	// (feature snapshot, residual tests, distance windows).
	const window = 100
	src := loadshed.NewGenerator(loadshed.TraceConfig{Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: true})
	batches := nextBatches(src, window)
	b.ReportAllocs()
	b.ResetTimer()
	bins, pkts := 0, 0
	for bins < b.N {
		res := loadshed.New(loadshed.Config{
			Scheme: loadshed.Predictive, Capacity: 3e8, Strategy: loadshed.MMFSPkt(), Seed: 1,
			ChangeDetection: true,
		}, loadshed.StandardQueries(loadshed.QueryConfig{})).Run(trace.NewMemorySource(batches[:min(b.N-bins, window)], src.TimeBin()))
		bins += len(res.Bins)
		for i := range res.Bins {
			pkts += res.Bins[i].WirePkts
		}
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkMicroMonitorBin(b *testing.B) {
	// One full predictive pipeline step per iteration (amortized over a
	// trace replay). The traffic is generated once, outside the timer:
	// the benchmark prices the monitor's steady-state bin loop, not the
	// synthetic trace generator.
	const window = 100
	src := loadshed.NewGenerator(loadshed.TraceConfig{Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: true})
	batches := nextBatches(src, window)
	b.ReportAllocs()
	b.ResetTimer()
	// Run b.N bins by replaying slices of the recorded window.
	bins, pkts := 0, 0
	for bins < b.N {
		res := loadshed.New(loadshed.Config{
			Scheme: loadshed.Predictive, Capacity: 3e8, Strategy: loadshed.MMFSPkt(), Seed: 1,
		}, loadshed.StandardQueries(loadshed.QueryConfig{})).Run(trace.NewMemorySource(batches[:min(b.N-bins, window)], src.TimeBin()))
		bins += len(res.Bins)
		for i := range res.Bins {
			pkts += res.Bins[i].WirePkts
		}
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkPipelineSaturation(b *testing.B) {
	// Steady-state wire throughput of the bin loop at increasing worker
	// counts (DESIGN.md §10): one warmed Monitor per sub-benchmark
	// streams the recorded window repeatedly into a discarding sink, so
	// the metric prices exactly the pipelined engine — extraction for
	// bin N+1 overlapped with execution for bin N — and nothing else.
	// The pkts/s trajectory in README.md comes from this benchmark.
	const window = 100
	src := loadshed.NewGenerator(loadshed.TraceConfig{Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: true})
	batches := nextBatches(src, window)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mon := loadshed.New(loadshed.Config{
				Scheme: loadshed.Predictive, Capacity: 3e8, Strategy: loadshed.MMFSPkt(), Seed: 1, Workers: workers,
			}, loadshed.StandardQueries(loadshed.QueryConfig{}))
			// Warm the scratch buffers, the slot ring and the worker
			// pools; the timed region then measures steady state only.
			mon.Stream(trace.NewMemorySource(batches, src.TimeBin()), nil)
			b.ReportAllocs()
			b.ResetTimer()
			bins, pkts := 0, 0
			for bins < b.N {
				n := min(b.N-bins, window)
				mon.Stream(trace.NewMemorySource(batches[:n], src.TimeBin()), nil)
				bins += n
				for i := 0; i < n; i++ {
					pkts += batches[i].Packets()
				}
			}
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

func nextBatches(src *trace.Generator, n int) []pkt.Batch {
	out := make([]pkt.Batch, 0, n)
	for i := 0; i < n; i++ {
		batch, ok := src.NextBatch()
		if !ok {
			src.Reset()
			batch, _ = src.NextBatch()
		}
		out = append(out, batch)
	}
	return out
}
