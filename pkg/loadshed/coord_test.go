package loadshed

// coord_test.go pins the engine's side of the coordinator split
// (node.go, cluster.go, and internal/control): the TCP transport must
// run the same protocol with lease-based partition and rejoin, and the
// aggregation layer must tolerate shards that never produced a record. The pre-split inline coordination is
// kept here as oracleClusterRun, which TestConformance's oracle row
// holds the loopback cluster to.

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// minShareClusterShards is testClusterShards with a guaranteed share on
// the attacked link, so the oracle comparison exercises the MinRate
// path through the allocators too.
func minShareClusterShards(dur time.Duration) []Shard {
	shards := testClusterShards(dur)
	shards[0].MinShare = 0.2
	return shards
}

// oracleClusterRun re-implements the pre-split Cluster loop inline —
// lockstep sequential stepping with the coordinator arithmetic
// (demand EWMA, allocator, 1% floor, surplus spread) exactly as
// Cluster.coordinate performed it before the Coordinator/Node/transport
// decomposition. It is the ground truth the conformance table's oracle
// row holds the refactored Cluster to.
func oracleClusterRun(cfg ClusterConfig, shards []Shard) *ClusterResult {
	cfg = cfg.withDefaults()
	type oshard struct {
		name     string
		minShare float64
		sys      *System
		run      *runner
		sink     *resultSink
		caps     []float64
		demand   float64
		seeded   bool
		done     bool
	}
	var os []*oshard
	for i, sh := range shards {
		scfg := cfg.Base
		scfg.Capacity = cfg.TotalCapacity / float64(len(shards))
		scfg.Seed = cfg.Base.Seed + uint64(i)*0x9e3779b97f4a7c15
		if cfg.Base.Workers == 0 {
			scfg.Workers = 1
		}
		name := sh.Name
		if name == "" {
			name = fmt.Sprintf("link%d", i)
		}
		o := &oshard{name: name, minShare: sh.MinShare, sys: New(scfg, sh.Queries)}
		o.sink = newResultSink(o.sys.cfg.Scheme)
		o.run = o.sys.newRunner(sh.Source, o.sink)
		os = append(os, o)
	}
	var ws sched.Workspace
	var demands []sched.Demand
	coordinated := cfg.ShardPolicy != nil && !math.IsInf(cfg.TotalCapacity, 1)
	for {
		for _, o := range os {
			if o.done {
				continue
			}
			capacity := o.sys.gov.Capacity()
			if o.run.step() {
				o.caps = append(o.caps, capacity)
			} else {
				o.done = true
			}
		}
		live := false
		for _, o := range os {
			if !o.done {
				live = true
			}
		}
		if !live {
			break
		}
		if !coordinated {
			continue
		}
		var active []*oshard
		for _, o := range os {
			if o.done {
				continue
			}
			if o.run.bin != 0 {
				b := &o.run.lastBin
				queryCost := b.Predicted
				if queryCost <= 0 {
					rate := b.GlobalRate
					if rate <= 0 {
						rate = 1
					}
					queryCost = b.Used / math.Max(rate, 0.01)
				}
				obs := b.Overhead + b.Shed + queryCost
				if !o.seeded {
					o.demand, o.seeded = obs, true
				} else {
					o.demand = demandAlpha*obs + (1-demandAlpha)*o.demand
				}
			}
			active = append(active, o)
		}
		if len(active) == 0 {
			continue
		}
		total := cfg.TotalCapacity
		demands = demands[:0]
		for _, o := range active {
			demands = append(demands, sched.Demand{Name: o.name, Cycles: o.demand, MinRate: o.minShare})
		}
		allocs := sched.AllocateInto(cfg.ShardPolicy, demands, total, &ws)
		floor := 0.01 * total / float64(len(active))
		var used float64
		for _, a := range allocs {
			used += math.Max(a.Cycles, floor)
		}
		surplus := math.Max(0, total-used) / float64(len(active))
		for i, o := range active {
			o.sys.setCapacity(math.Max(allocs[i].Cycles, floor) + surplus)
		}
	}
	for _, o := range os {
		o.run.finish()
	}
	res := &ClusterResult{}
	for _, o := range os {
		res.Shards = append(res.Shards, ShardRun{Name: o.name, Result: o.sink.res, Capacities: o.caps})
	}
	res.Aggregate = aggregateBins(res.Shards)
	return res
}

// TestAggregateBinsNilShardResult: a shard without a record — a worker
// that never joined a distributed run — must aggregate as zero, not
// panic (regression: aggregateBins and the ClusterResult totals used to
// dereference Result unconditionally).
func TestAggregateBinsNilShardResult(t *testing.T) {
	live := &RunResult{Bins: []BinStats{
		{WirePkts: 5, DropPkts: 2, Capacity: 10, GlobalRate: 0.5},
		{WirePkts: 7, DropPkts: 1, Capacity: 10, GlobalRate: 1},
	}}
	shards := []ShardRun{
		{Name: "w0", Result: live},
		{Name: "w1", Result: nil},
	}
	agg := aggregateBins(shards)
	if len(agg) != 2 {
		t.Fatalf("aggregate has %d bins, want 2", len(agg))
	}
	if agg[0].WirePkts != 5 || agg[1].WirePkts != 7 {
		t.Fatalf("aggregate wire packets %d/%d, want 5/7", agg[0].WirePkts, agg[1].WirePkts)
	}
	if agg[0].GlobalRate != 0.5 {
		t.Fatalf("aggregate global rate %v, want 0.5", agg[0].GlobalRate)
	}
	res := &ClusterResult{Shards: shards, Aggregate: agg}
	if got := res.TotalWirePkts(); got != 12 {
		t.Fatalf("TotalWirePkts %d, want 12", got)
	}
	if got := res.TotalDrops(); got != 3 {
		t.Fatalf("TotalDrops %d, want 3", got)
	}
	if all := aggregateBins([]ShardRun{{Name: "w1"}}); len(all) != 0 {
		t.Fatalf("all-nil aggregate has %d bins, want 0", len(all))
	}
}

// cancelAfterSource cancels a context after its wrapped source has
// served n batches, landing the cancellation between a step barrier and
// the next coordination round.
type cancelAfterSource struct {
	trace.Source
	n      int
	count  int
	cancel context.CancelFunc
}

func (s *cancelAfterSource) NextBatch() (pkt.Batch, bool) {
	s.count++
	if s.count == s.n {
		s.cancel()
	}
	return s.Source.NextBatch()
}

// TestClusterStreamContextCancelMidCoordinate cancels a coordinated
// cluster mid-run from inside a shard's source and verifies the
// teardown contract: ctx.Err() comes back, every shard's capacities
// stay aligned with its bins, the partial aggregate is well-formed, and
// no shard pipeline or pool goroutine outlives the call.
func TestClusterStreamContextCancelMidCoordinate(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const dur = 5 * time.Second
			total := clusterCapacity(testClusterShards(dur))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			shards := minShareClusterShards(dur)
			shards[1].Source = &cancelAfterSource{Source: shards[1].Source, n: 13, cancel: cancel}
			c := NewCluster(ClusterConfig{
				Base:          Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 42, Workers: workers},
				TotalCapacity: total,
				ShardPolicy:   MMFSCPU(),
				Runners:       3,
			}, shards)
			res, err := c.RunContext(ctx)
			if err != context.Canceled {
				t.Fatalf("RunContext error %v, want context.Canceled", err)
			}
			maxBins := 0
			for _, sh := range res.Shards {
				if sh.Result == nil {
					t.Fatalf("shard %s has no record after cancellation", sh.Name)
				}
				if len(sh.Capacities) != len(sh.Result.Bins) {
					t.Fatalf("shard %s: %d capacities vs %d bins", sh.Name, len(sh.Capacities), len(sh.Result.Bins))
				}
				if len(sh.Result.Bins) == 0 {
					t.Fatalf("shard %s processed no bins before the cancel at batch 13", sh.Name)
				}
				if n := len(sh.Result.Bins); n > maxBins {
					maxBins = n
				}
			}
			if len(res.Aggregate) != maxBins {
				t.Fatalf("aggregate has %d bins, want %d", len(res.Aggregate), maxBins)
			}
		})
	}
	// Every pipeline, worker pool and runner must be torn down; give
	// exiting goroutines a moment to unwind before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancelled cluster runs: %d before, %d after", before, g)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// serveTCP serves coord on a loopback listener until the test ends.
func serveTCP(t *testing.T, coord *control.Coordinator, cfg CoordServerConfig) *control.CoordServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeCoordinator(ln, coord, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialTCP joins a worker named name to srv until the test ends.
func dialTCP(t *testing.T, srv *control.CoordServer, name string, cfg CoordClientConfig) *control.CoordClient {
	t.Helper()
	c, err := DialCoordinator(srv.Addr().String(), name, cfg)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTCPCoordinationPartitionRejoin drives the full TCP state machine
// in-process: two workers join and split the budget; one goes silent
// past the lease and is marked partitioned while its budget moves to
// the survivor and its own grant goes stale (local-only degradation);
// it then reports again and rejoins the allocation.
func TestTCPCoordinationPartitionRejoin(t *testing.T) {
	const total = 1000.0
	coord := NewCoordinator(sched.MMFSCPU{}, total)
	srv := serveTCP(t, coord, CoordServerConfig{Heartbeat: 10 * time.Millisecond, Lease: 60 * time.Millisecond})
	ccfg := CoordClientConfig{Lease: 60 * time.Millisecond}
	alpha, beta := dialTCP(t, srv, "alpha", ccfg), dialTCP(t, srv, "beta", ccfg)

	report := func(c *control.CoordClient, demand float64) {
		c.Report(DemandReport{Bin: 1, Demand: demand}) // the connection names the node
	}
	partitioned := func(name string) bool {
		for _, n := range coord.Status() {
			if n.Name == name {
				return n.Partitioned
			}
		}
		return false
	}

	// Phase 1: both report, both must hold grants summing to the budget.
	waitFor(t, 5*time.Second, "both workers granted", func() bool {
		report(alpha, 600)
		report(beta, 600)
		_, aok := alpha.Grant()
		_, bok := beta.Grant()
		return aok && bok
	})
	ga, _ := alpha.Grant()
	gb, _ := beta.Grant()
	if sum := ga.Capacity + gb.Capacity; math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("grants sum to %v, want %v", sum, total)
	}

	// Phase 2: beta goes silent. Past the lease the coordinator marks it
	// partitioned, the survivor absorbs the whole budget, and beta's own
	// grant goes stale — it degrades to local-only shedding.
	waitFor(t, 5*time.Second, "beta partitioned and alpha absorbing the budget", func() bool {
		report(alpha, 600)
		g, ok := alpha.Grant()
		return partitioned("beta") && ok && math.Abs(g.Capacity-total) < 1e-6*total
	})
	waitFor(t, 5*time.Second, "beta degraded to local-only", func() bool {
		_, fresh := beta.Grant()
		return !fresh
	})

	// Phase 3: beta reports again and must rejoin the allocation.
	waitFor(t, 5*time.Second, "beta rejoined", func() bool {
		report(alpha, 600)
		report(beta, 600)
		g, ok := beta.Grant()
		return !partitioned("beta") && ok && g.Capacity < total
	})
}

// TestNodeStreamContextTCPWorker runs a standalone worker Node against
// a TCP coordinator end to end: the trace completes, per-bin capacities
// stay aligned, and the coordinator sees the node's reports and its
// final done notice.
func TestNodeStreamContextTCPWorker(t *testing.T) {
	coord := NewCoordinator(sched.MMFSCPU{}, 5e6)
	srv := serveTCP(t, coord, CoordServerConfig{Heartbeat: 5 * time.Millisecond, Lease: 50 * time.Millisecond})
	client := dialTCP(t, srv, "w0", CoordClientConfig{Lease: 50 * time.Millisecond})

	qs := []queries.Query{
		queries.NewFlows(queries.Config{Seed: 5}),
		queries.NewCounter(queries.Config{Seed: 5}),
	}
	sys := New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 7, Capacity: 5e6, Workers: 1}, qs)
	node := NewNode(sys, client, NodeConfig{Name: "w0"})
	sink := newResultSink(Predictive)
	src := trace.NewGenerator(trace.CESCA2(3, 2*time.Second, 0.3))
	if err := node.StreamContext(context.Background(), src, sink); err != nil {
		t.Fatalf("worker stream: %v", err)
	}
	if n := len(sink.res.Bins); n == 0 {
		t.Fatal("worker produced no bins")
	}
	waitFor(t, 5*time.Second, "coordinator saw the done report", func() bool {
		st := coord.Status()
		return len(st) == 1 && st[0].Name == "w0" && st[0].Done && st[0].Bin > 0
	})
}

// loopbackRound joins n nodes to a fresh coordinator over the loopback
// transport and returns one coordination round over them — report,
// allocate, read grants — with the coordinator's scratch buffers
// already grown by a first round.
func loopbackRound(n int) func(bin int64) {
	coord := NewCoordinator(MMFSCPU(), 3e6)
	trs := make([]NodeTransport, n)
	demands := make([]float64, n)
	for j := range trs {
		trs[j] = NewLoopback(coord, fmt.Sprintf("n%d", j), 0)
		demands[j] = 1e6 * float64(j+1) / float64(n)
	}
	round := func(bin int64) {
		for j, tr := range trs {
			tr.Report(DemandReport{Bin: bin, Demand: demands[j]})
		}
		coord.AllocateRound()
		for _, tr := range trs {
			tr.Grant()
		}
	}
	round(0)
	return round
}

// TestLoopbackRoundAllocFree: the per-bin coordination round every
// coordinated cluster bin pays runs on scratch buffers and allocates
// nothing in steady state.
func TestLoopbackRoundAllocFree(t *testing.T) {
	round := loopbackRound(8)
	bin := int64(0)
	if allocs := testing.AllocsPerRun(100, func() { bin++; round(bin) }); allocs != 0 {
		t.Fatalf("8-node loopback round allocates %v/op, want 0", allocs)
	}
}

// BenchmarkLoopbackCoordination prices the coordination layer the split
// introduced. roundN is the pure per-bin cost of one loopback
// coordination round over N nodes, which is the overhead every
// coordinated bin pays on top of shard execution
// (TestLoopbackRoundAllocFree holds it at 0 allocs).
// static and coordinated price a full 3-shard cluster run with
// coordination off and on; the ns/bin delta between them is the
// end-to-end overhead including the demand EWMAs and grant
// application.
//
//	go test -bench LoopbackCoordination -benchtime 100x ./pkg/loadshed
func BenchmarkLoopbackCoordination(b *testing.B) {
	for _, nodes := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("round%d", nodes), func(b *testing.B) {
			round := loopbackRound(nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(int64(i) + 1)
			}
		})
	}

	cluster := benchClusters(2 * time.Second)
	for _, mode := range []struct {
		name   string
		policy sched.Strategy
	}{{"static", nil}, {"coordinated", MMFSCPU()}} {
		b.Run(mode.name, func(b *testing.B) {
			bins := 0
			for i := 0; i < b.N; i++ {
				res := cluster(mode.policy, 1).Run()
				bins = len(res.Shards[0].Result.Bins)
			}
			if bins > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bins), "ns/bin")
			}
		})
	}
}
