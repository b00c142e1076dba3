package loadshed

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queries"
)

// TestAddQueryValidation pins the admin-plane error contract: AddQuery
// and RemoveQuery return errors for operator mistakes instead of
// panicking inside a serving process.
func TestAddQueryValidation(t *testing.T) {
	sys := New(streamCfg(1), stdQueries())
	if err := sys.AddQuery(nil); err == nil {
		t.Fatal("nil query accepted")
	}
	if err := sys.AddQuery(queries.NewCounter(queries.Config{Seed: 2})); err == nil {
		t.Fatal("duplicate active name accepted")
	}
	if err := sys.AddQuery(queries.NewTopK(queries.Config{Seed: 2, Interval: 2 * time.Second}, 10)); err == nil {
		t.Fatal("mismatched interval accepted")
	}
	if err := sys.RemoveQuery("no-such-query"); err == nil {
		t.Fatal("unknown removal accepted")
	}
	if err := sys.RemoveQuery("counter"); err != nil {
		t.Fatalf("removing an active query: %v", err)
	}
	if err := sys.RemoveQuery("counter"); err == nil {
		t.Fatal("double removal accepted")
	}
	// The freed name is reusable immediately.
	if err := sys.AddQuery(queries.NewCounter(queries.Config{Seed: 3})); err != nil {
		t.Fatalf("re-adding a removed name: %v", err)
	}
}

// TestRemoveQueryTombstone removes one query mid-run under unlimited
// capacity and requires: the removal takes effect at the interval
// boundary after its final flush; the removed column reads zero rates
// and nil results from then on without dragging GlobalRate to 0; and
// every surviving query's column is bit-identical to a run that never
// removed anything (with no shedding, queries are independent).
func TestRemoveQueryTombstone(t *testing.T) {
	const victim = "flows"
	mkCfg := func() Config {
		return Config{Scheme: Predictive, Seed: 9, BufferBins: 2, Workers: 1}
	}
	src := func() Source { return testSource(6, 4*time.Second) }

	base := New(mkCfg(), stdQueries()).Run(src())
	vic := slices.Index(base.Queries, victim)
	if vic < 0 {
		t.Fatalf("query %q not in the standard set", victim)
	}

	sys := New(mkCfg(), stdQueries())
	rs := newResultSink()
	roll := NewRollingStats(40)
	bin := 0
	trigger := SinkFuncs{Bin: func(*BinStats) {
		if bin == 13 {
			if err := sys.RemoveQuery(victim); err != nil {
				t.Errorf("RemoveQuery: %v", err)
			}
		}
		bin++
	}}
	sys.Stream(src(), Tee(rs, roll, trigger))
	got := rs.res

	const boundary = 20 // the op queued at bin 13 applies here
	if len(got.Bins) != len(base.Bins) {
		t.Fatalf("%d bins vs %d", len(got.Bins), len(base.Bins))
	}
	for i := range base.Bins {
		b, g := &base.Bins[i], &got.Bins[i]
		if i < boundary {
			if !reflect.DeepEqual(*b, *g) {
				t.Fatalf("bin %d diverged before the removal applied", i)
			}
			continue
		}
		if g.GlobalRate != 1 {
			t.Fatalf("bin %d: tombstone dragged GlobalRate to %v", i, g.GlobalRate)
		}
		if g.Rates[vic] != 0 || g.QueryUsed[vic] != 0 || g.QueryPred[vic] != 0 {
			t.Fatalf("bin %d: removed column still live: rate %v used %v pred %v",
				i, g.Rates[vic], g.QueryUsed[vic], g.QueryPred[vic])
		}
		for q := range b.QueryUsed {
			if q == vic {
				continue
			}
			if b.QueryUsed[q] != g.QueryUsed[q] || b.QueryPred[q] != g.QueryPred[q] || b.Rates[q] != g.Rates[q] {
				t.Fatalf("bin %d query %d: survivor column diverged", i, q)
			}
		}
	}
	for _, iv := range got.Intervals {
		// Interval 0 and 1 flushed before/at the boundary with the query
		// still live; later flushes must carry nil for the tombstone.
		if iv.Index >= 2 && iv.Results[vic] != nil {
			t.Fatalf("interval %d: removed query still reporting", iv.Index)
		}
		if iv.Index < 2 && iv.Results[vic] == nil {
			t.Fatalf("interval %d: removal applied before its boundary", iv.Index)
		}
	}
	snap := roll.Snapshot()
	if snap.Active[vic] {
		t.Fatal("RollingStats did not mark the removed query inactive")
	}
	for q, a := range snap.Active {
		if q != vic && !a {
			t.Fatalf("survivor %d marked inactive", q)
		}
	}

	// The next run reclaims the tombstone: one fewer query announced,
	// indices compacted.
	rs2 := newResultSink()
	sys.Stream(src(), rs2)
	if len(rs2.res.Queries) != len(base.Queries)-1 {
		t.Fatalf("restarted run announces %d queries, want %d", len(rs2.res.Queries), len(base.Queries)-1)
	}
	if slices.Contains(rs2.res.Queries, victim) {
		t.Fatal("removed query came back after restart")
	}
}

// waitGoroutines polls until the goroutine count returns to the
// baseline; workers unwind asynchronously after their channels close.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	var after int
	for i := 0; i < 100; i++ {
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after cancelled streams", before, after)
}

// TestStreamContextCancelReleasesGoroutines is the cancellation half of
// the tentpole: cancelling mid-run stops the stream at a bin boundary,
// still flushes the open interval, and tears down the front goroutine
// and both worker pools — no leaks, sequential or pipelined, proven
// under -race by the CI race job.
func TestStreamContextCancelReleasesGoroutines(t *testing.T) {
	for _, workers := range []int{1, 6} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := streamCfg(41)
			cfg.Workers = workers
			sys := New(cfg, stdQueries())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			bins, intervals := 0, 0
			sink := SinkFuncs{
				Bin: func(*BinStats) {
					bins++
					if bins == 10 {
						cancel()
					}
				},
				Interval: func(*IntervalResults) { intervals++ },
			}
			err := sys.StreamContext(ctx, testSource(8, 60*time.Second), sink)
			if err != context.Canceled {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if bins >= 600 {
				t.Fatal("cancelled stream ran to end of trace")
			}
			if intervals == 0 {
				t.Fatal("cancelled stream did not flush its open interval")
			}
			waitGoroutines(t, before)

			// The System is reusable after a cancelled run.
			res := sys.Run(testSource(8, 2*time.Second))
			if len(res.Bins) != 20 {
				t.Fatalf("post-cancel run produced %d bins, want 20", len(res.Bins))
			}
			waitGoroutines(t, before)
		})
	}
}

// TestClusterStreamContextCancel extends the cancellation contract to
// the sharded engine: every shard stops at its next bin, open intervals
// flush, and all shard pipelines and the runner pool wind down.
func TestClusterStreamContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	links := SplitFlows(testSource(4, 60*time.Second), 2, 5)
	shards := make([]Shard, len(links))
	for i, l := range links {
		shards[i] = Shard{Source: l, Queries: stdQueries()}
	}
	c := NewCluster(ClusterConfig{
		Base:          Config{Scheme: Predictive, Seed: 8, Strategy: MMFSPkt(), Workers: 2},
		TotalCapacity: 6e6,
		ShardPolicy:   MMFSCPU(),
		Runners:       2,
	}, shards)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bins atomic.Int64
	err := c.StreamContext(ctx, func(int, string) Sink {
		return SinkFuncs{Bin: func(*BinStats) {
			if bins.Add(1) == 10 {
				cancel()
			}
		}}
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := bins.Load(); n >= 1200 {
		t.Fatalf("cancelled cluster processed %d shard-bins (ran to completion)", n)
	}
	waitGoroutines(t, before)
}
