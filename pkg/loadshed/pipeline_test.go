package loadshed

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// pipeCfg is an overloaded predictive setup whose runs include DAG-drop
// bins, so pipelined runs exercise the mis-speculation path (the front
// stage's wire-batch sketch is invalidated by tail drop and the back
// stage truncates it to the admitted prefix).
func pipeCfg(workers int) Config {
	return Config{
		Scheme:         Predictive,
		Capacity:       2e6,
		BufferBins:     1,
		Strategy:       MMFSPkt(),
		Seed:           42,
		SpikeProb:      0.02,
		CustomShedding: true,
		Workers:        workers,
	}
}

func pipeRun(cfg Config) *RunResult {
	return New(cfg, AllQueries(QueryConfig{Seed: 42})).Run(testSource(12, 6*time.Second))
}

// TestPipelineMatchesSequential is the tentpole contract: for any
// Workers count the two-deep bin pipeline produces a RunResult
// bit-identical to the strictly sequential engine — bins, intervals,
// RNG-dependent spikes and all — because the front stage only ever
// computes the pure sketch half of extraction and everything stateful
// stays in bin order. The config is overloaded enough to tail-drop, so
// the speculative sketch's fallback path is proven too.
func TestPipelineMatchesSequential(t *testing.T) {
	seq := pipeRun(pipeCfg(1))
	if seq.TotalDrops() == 0 {
		t.Fatal("config produced no DAG drops; the mis-speculation path is not exercised")
	}
	for _, workers := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := pipeRun(pipeCfg(workers))
			if len(par.Bins) != len(seq.Bins) {
				t.Fatalf("%d bins vs %d sequential", len(par.Bins), len(seq.Bins))
			}
			for i := range seq.Bins {
				if !reflect.DeepEqual(seq.Bins[i], par.Bins[i]) {
					t.Fatalf("bin %d diverged\nseq: %+v\npip: %+v", i, seq.Bins[i], par.Bins[i])
				}
			}
			if !reflect.DeepEqual(seq.Intervals, par.Intervals) {
				t.Fatal("interval query results diverged")
			}
		})
	}
}

// TestRollingStatsPipelinedStream consumes a pipelined stream through
// RollingStats — whose callbacks run after the ring has handed the
// bin's slot back to the front stage — and requires the snapshot to
// match a sequential stream's.
func TestRollingStatsPipelinedStream(t *testing.T) {
	snap := func(workers int) RollingSnapshot {
		cfg := streamCfg(17)
		cfg.Workers = workers
		roll := NewRollingStats(40)
		New(cfg, stdQueries()).Stream(testSource(11, 5*time.Second), roll)
		return roll.Snapshot()
	}
	want := snap(1)
	for _, workers := range []int{2, 4} {
		if got := snap(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: rolling snapshot diverged\nseq: %+v\npip: %+v", workers, want, got)
		}
	}
}

// TestPipelineSteadyStateAllocs proves the slot ring adds no per-bin
// allocations: with warmed Systems streaming into a RollingStats from
// a recorded source, the allocation growth from doubling the trace
// length must be the same pipelined as sequential. (The growth itself
// is not zero — interval flushes cost a few allocations per flush on
// both paths — so the guard compares marginal cost, which isolates
// exactly what the ring, the staging sketches and the pools add: it
// must be nothing.)
func TestPipelineSteadyStateAllocs(t *testing.T) {
	batches := trace.Record(testSource(19, 6*time.Second))
	long := trace.NewMemorySource(batches, trace.DefaultTimeBin)
	short := trace.NewMemorySource(batches[:len(batches)/2], trace.DefaultTimeBin)

	growth := func(workers int) float64 {
		cfg := streamCfg(23)
		cfg.Workers = workers
		sys := New(cfg, stdQueries())
		sink := NewRollingStats(30)
		// Warm every scratch buffer, the ring, and the predictors'
		// history rings — an overloaded run skips Observe on withheld
		// bins, so one pass does not fill all 60 history slots.
		for i := 0; i < 3; i++ {
			sys.Stream(long, sink)
		}
		aShort := testing.AllocsPerRun(5, func() { sys.Stream(short, sink) })
		aLong := testing.AllocsPerRun(5, func() { sys.Stream(long, sink) })
		return aLong - aShort
	}

	seq := growth(1)
	// Workers=4: slots, staging sketches, staticPool and the exec pool
	// are all in play. Allow one alloc of jitter — AllocsPerRun rounds
	// an occasional background-GC hiccup into the count.
	if pipe := growth(4); pipe > seq+1 {
		t.Fatalf("pipelined stream allocates in steady state: growth %v allocs vs sequential %v over %d extra bins",
			pipe, seq, len(batches)-len(batches)/2)
	}
}

// TestClusterPipelinedShardsDeterminism runs the sharded engine with
// pipelined shards — every shard gets its own front goroutine and slot
// ring — against fully sequential shards. The coordinator must see
// identical per-bin records either way, because each shard's SetCapacity
// lands between that shard's bins exactly as before.
func TestClusterPipelinedShardsDeterminism(t *testing.T) {
	mkCluster := func(shardWorkers int) *Cluster {
		links := SplitFlows(testSource(4, 3*time.Second), 2, 5)
		shards := make([]Shard, len(links))
		for i, l := range links {
			shards[i] = Shard{Source: l, Queries: stdQueries()}
		}
		return NewCluster(ClusterConfig{
			Base:          Config{Scheme: Predictive, Seed: 8, Strategy: MMFSPkt(), Workers: shardWorkers},
			TotalCapacity: 6e6,
			ShardPolicy:   MMFSCPU(),
			Runners:       2,
		}, shards)
	}
	want := mkCluster(1).Run()
	got := mkCluster(2).Run()
	for i := range want.Shards {
		if !reflect.DeepEqual(want.Shards[i].Result, got.Shards[i].Result) {
			t.Fatalf("shard %d diverged between sequential and pipelined shards", i)
		}
		if !reflect.DeepEqual(want.Shards[i].Capacities, got.Shards[i].Capacities) {
			t.Fatalf("shard %d: coordinator grants diverged", i)
		}
	}
}

// TestPipelineReleasesGoroutines pins the per-run lifecycle: the front
// goroutine exits with the trace and finish() releases the sketch pool,
// so a System that has finished streaming holds no goroutines — Systems
// are created in bulk by benchmarks and experiments, and a persistent
// pool would leak with each one.
func TestPipelineReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := streamCfg(27)
	cfg.Workers = 7 // front pool of 2 helpers plus the front goroutine
	sys := New(cfg, stdQueries())
	for i := 0; i < 3; i++ {
		sys.Stream(testSource(7, 2*time.Second), nil)
	}
	var after int
	for i := 0; i < 50; i++ { // workers unwind asynchronously after close
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after pipelined streams finished", before, after)
}
