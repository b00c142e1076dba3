package loadshed_test

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (BenchmarkExperiments, one sub-benchmark per experiment
// id) plus micro-benchmarks of the hot paths the thesis prices out in
// Table 3.4.
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

// BenchmarkExperiments regenerates every registered experiment, one
// sub-benchmark per id (`-bench 'Experiments/fig4.3$'` picks one), so a
// newly registered experiment is covered without a new wrapper. Each
// result is rendered to io.Discard so the full output path is exercised.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Seed: 1, Scale: 0.05, Dur: 8 * time.Second, Quick: true}
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(id, cfg)
				if err != nil {
					b.Fatal(err)
				}
				experiments.Render(io.Discard, res)
			}
		})
	}
}

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

// monitorBinWindow is how many bins of traffic the bin-loop benchmarks
// replay.
const monitorBinWindow = 100

// monitorBinBatches records that window once, outside any timer, so the
// benchmarks price the monitor's bin loop and not the synthetic trace
// generator.
func monitorBinBatches() ([]pkt.Batch, time.Duration) {
	src := loadshed.NewGenerator(loadshed.TraceConfig{Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: true})
	batches := make([]pkt.Batch, monitorBinWindow)
	for i := range batches {
		batches[i], _ = src.NextBatch()
	}
	return batches, src.TimeBin()
}

// runMonitorBins runs a fresh predictive monitor over batches and
// returns the wire packets it saw. workers 0 is the engine default.
func runMonitorBins(batches []pkt.Batch, bin time.Duration, workers int, changeDetect bool) (pkts int) {
	res := loadshed.New(loadshed.Config{
		Scheme: loadshed.Predictive, Capacity: 3e8, Strategy: loadshed.MMFSPkt(), Seed: 1,
		Workers: workers, ChangeDetection: changeDetect,
	}, loadshed.StandardQueries(loadshed.QueryConfig{})).Run(trace.NewMemorySource(batches, bin))
	for i := range res.Bins {
		pkts += res.Bins[i].WirePkts
	}
	return pkts
}

// benchMonitorBin: one full predictive pipeline step per iteration,
// amortized over replays of the recorded window by fresh monitors.
func benchMonitorBin(b *testing.B, changeDetect bool) {
	batches, bin := monitorBinBatches()
	b.ReportAllocs()
	b.ResetTimer()
	pkts := 0
	for bins := 0; bins < b.N; bins += monitorBinWindow {
		pkts += runMonitorBins(batches[:min(b.N-bins, monitorBinWindow)], bin, 0, changeDetect)
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkMicroMonitorBin(b *testing.B) { benchMonitorBin(b, false) }

// BenchmarkMicroMonitorBinChangeDetect is BenchmarkMicroMonitorBin with
// the drift detector enabled; the delta between the two prices the full
// detectChange stage per bin (feature snapshot, residual tests, distance
// windows).
func BenchmarkMicroMonitorBinChangeDetect(b *testing.B) { benchMonitorBin(b, true) }

// TestMonitorBinAllocCap bounds the whole bin loop's allocations: a
// fresh monitor over the 100-bin window — construction, warm-up growth
// and the retained RunResult included — stays under 250 allocations per
// bin, sequential and pipelined, detector off and on (measured: 28-30).
func TestMonitorBinAllocCap(t *testing.T) {
	const maxPerBin = 250
	batches, bin := monitorBinBatches()
	for _, workers := range []int{1, 4} {
		for _, changeDetect := range []bool{false, true} {
			perWindow := testing.AllocsPerRun(1, func() { runMonitorBins(batches, bin, workers, changeDetect) })
			if perBin := perWindow / monitorBinWindow; perBin > maxPerBin {
				t.Errorf("workers=%d changeDetect=%v: %.0f allocs/bin over a fresh-monitor window, cap %d",
					workers, changeDetect, perBin, maxPerBin)
			}
		}
	}
}

// BenchmarkBinLoop is one bin of the benchmark's replay workloads
// (bench/workloads.go), priced from inside the repo so a profile can
// attribute it: `go test -run '^$' -bench BinLoop/overload2x
// -cpuprofile cpu.out`. Same trace (CESCA-II, seed 1), same budgets from
// MeasureLoad (overhead + demand/2 for overload2x, 32 × (overhead +
// demand) for underload), same engine (MMFSPkt, one worker, standard
// queries with seed 7); a warmed system re-streams the recorded window,
// whole passes and a last partial one. tick8 is the batch a serving lsd
// makes of one 100 ms tick under live_serve's feeder: eight replay bins
// per batch, at eight bins' overhead plus half their demand.
func BenchmarkBinLoop(b *testing.B) {
	dur := 4 * time.Second
	if testing.Short() {
		dur = 800 * time.Millisecond // one tick8 batch
	}
	g := trace.NewGenerator(trace.CESCA2(1, dur, 1))
	batches, bin := trace.Record(g), g.TimeBin()
	qcfg := loadshed.QueryConfig{Seed: 7}
	overhead, demand := loadshed.MeasureLoad(trace.NewMemorySource(batches, bin), loadshed.StandardQueries(qcfg), 7)
	var ticks []pkt.Batch
	for k := 0; k+8 <= len(batches); k += 8 {
		var tick []pkt.Packet
		for _, bb := range batches[k : k+8] {
			tick = append(tick, bb.Pkts...)
		}
		ticks = append(ticks, pkt.Batch{Start: time.Duration(len(ticks)) * bin, Bin: bin, Pkts: tick})
	}
	for _, w := range []struct {
		name     string
		batches  []pkt.Batch
		capacity float64
	}{
		{"overload2x", batches, overhead + demand/2},
		{"underload", batches, 32 * (overhead + demand)},
		{"tick8", ticks, 8 * (overhead + demand/2)},
	} {
		batches := w.batches
		b.Run(w.name, func(b *testing.B) {
			sys := loadshed.New(loadshed.Config{
				Scheme: loadshed.Predictive, Strategy: loadshed.MMFSPkt(), Capacity: w.capacity, Workers: 1, Seed: 7,
			}, loadshed.StandardQueries(qcfg))
			sys.Stream(trace.NewMemorySource(batches, bin), nil)
			b.ReportAllocs()
			b.ResetTimer()
			pkts := 0
			for bins := 0; bins < b.N; {
				n := min(b.N-bins, len(batches))
				sys.Stream(trace.NewMemorySource(batches[:n], bin), nil)
				for i := range batches[:n] {
					pkts += batches[i].Packets()
				}
				bins += n
			}
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

func BenchmarkPipelineSaturation(b *testing.B) {
	// Steady-state wire throughput of the bin loop at increasing worker
	// counts (DESIGN.md, "Bin pipeline"): one warmed Monitor per
	// sub-benchmark streams the recorded window repeatedly into a
	// discarding sink, so the metric prices exactly the pipelined engine
	// — extraction for bin N+1 overlapped with execution for bin N — and
	// nothing else.
	batches, bin := monitorBinBatches()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mon := loadshed.New(loadshed.Config{
				Scheme: loadshed.Predictive, Capacity: 3e8, Strategy: loadshed.MMFSPkt(), Seed: 1, Workers: workers,
			}, loadshed.StandardQueries(loadshed.QueryConfig{}))
			// Warm the scratch buffers, the slot ring and the worker
			// pools; the timed region then measures steady state only.
			mon.Stream(trace.NewMemorySource(batches, bin), nil)
			b.ReportAllocs()
			b.ResetTimer()
			bins, pkts := 0, 0
			for bins < b.N {
				n := min(b.N-bins, monitorBinWindow)
				mon.Stream(trace.NewMemorySource(batches[:n], bin), nil)
				bins += n
				for i := 0; i < n; i++ {
					pkts += batches[i].Packets()
				}
			}
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}
