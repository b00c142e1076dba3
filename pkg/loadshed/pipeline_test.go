package loadshed

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestPipelineSteadyStateAllocs proves the slot ring adds no per-bin
// allocations: with warmed Systems streaming into a RollingStats from
// a recorded source, the allocation growth from doubling the trace
// length must be the same pipelined as sequential. (The growth itself
// is not zero — interval flushes cost a few allocations per flush on
// both paths — so the guard compares marginal cost, which isolates
// exactly what the ring, the front goroutine and the execute pool add:
// it must be nothing.)
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
	// Workers=4: both slots, the front goroutine and an execute pool
	// with helpers are all in play. Allow one alloc of jitter —
	// AllocsPerRun rounds an occasional background-GC hiccup into the
	// count.
	if pipe := growth(4); pipe > seq+1 {
		t.Fatalf("pipelined stream allocates in steady state: growth %v allocs vs sequential %v over %d extra bins",
			pipe, seq, len(batches)-len(batches)/2)
	}
}

// TestPipelineReleasesGoroutines pins the per-run lifecycle: the front
// goroutine exits with the trace and finish() releases the execute
// pool, so a System that has finished streaming holds no goroutines — Systems
// are created in bulk by benchmarks and experiments, and a persistent
// pool would leak with each one.
func TestPipelineReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := streamCfg(27)
	cfg.Workers = 7 // the front goroutine plus an execute pool of 5 helpers
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
