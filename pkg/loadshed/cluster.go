package loadshed

// cluster.go shards the engine across links: a Cluster runs one System
// per monitored link, all in lockstep, with a global budget coordinator
// that redistributes the machine's total cycle capacity across shards
// every bin. A local shedder can only react to overload on its own
// link; the coordinator sees all links at once and steals budget from
// idle ones to absorb a localized surge (e.g. a DDoS swamping a single
// link), which is the rebalancing argument of "Grand Perspective: Load
// Shedding in Distributed CEP Applications" transplanted to per-link
// monitors.
//
// The coordinator reuses the Chapter 5 allocators (internal/sched)
// with shards in place of queries: each shard presents an observed
// cycle demand and an optional guaranteed share, and mmfs_cpu /
// eq_srates / mmfs_pkt become cross-shard policies. A nil policy is
// the isolated baseline: a static equal split, exactly N independent
// shedders.
//
// Cluster is a thin composition: a coordinator (internal/control) plus
// one Node per shard (node.go), wired over the synchronous loopback
// transport. The lockstep loop steps all shards at the barrier, then
// runs one coordination round (reports in shard-index order, allocate,
// grants back), so results are bit-identical to the pre-split Cluster,
// and the same Coordinator served over TCP runs the identical protocol
// across processes.

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/control"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Shard describes one link's monitor inside a Cluster.
type Shard struct {
	// Name labels the shard in results ("link0", "uplink", ...).
	Name string
	// Source is the link's traffic. Each shard must own its source:
	// shards step concurrently and Source implementations are not safe
	// for shared use.
	Source trace.Source
	// Queries are the shard's fresh query instances.
	Queries []queries.Query
	// MinShare is the fraction of the shard's observed demand the
	// coordinator must cover before surplus moves elsewhere — the
	// cross-shard analogue of a query's minimum sampling rate m_q.
	// Zero means no guarantee.
	MinShare float64
}

// ClusterConfig parameterizes a multi-link run.
type ClusterConfig struct {
	// Base is the per-shard engine template. Capacity is ignored (the
	// coordinator owns the budget); Seed is offset per shard so every
	// link draws independent streams. Arrival.Make and Predictor
	// closures, if set, are invoked concurrently from shard runners
	// (every shard reaches a given bin in the same round) and must not
	// mutate shared state.
	Base Config

	// TotalCapacity is the machine's cycle budget per bin, shared by
	// all shards. <= 0 means unlimited (no coordination possible).
	TotalCapacity float64

	// ShardPolicy splits TotalCapacity across shards each bin from
	// their observed demands. nil selects the static equal split — no
	// coordination, the isolated-shedders baseline.
	ShardPolicy sched.Strategy

	// Runners bounds the goroutines stepping shards within a bin (a
	// per-run pool, the calling goroutine included). 0 selects
	// runtime.GOMAXPROCS(0); 1 steps every shard inline.
	// Results are bit-identical for any value: each shard owns all of
	// its state and the coordinator runs at a barrier between bins,
	// reading shards in index order.
	Runners int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.TotalCapacity <= 0 {
		c.TotalCapacity = math.Inf(1)
	}
	if c.Runners <= 0 {
		c.Runners = runtime.GOMAXPROCS(0)
	}
	return c
}

// coordinated reports whether the config calls for an actual budget
// coordinator; without a policy or a finite budget the initial equal
// split stands and shards run isolated.
func (c ClusterConfig) coordinated() bool {
	return c.ShardPolicy != nil && !math.IsInf(c.TotalCapacity, 1)
}

// ShardRun is one shard's record in a ClusterResult.
type ShardRun struct {
	Name   string
	Result *RunResult
	// Capacities is the per-bin cycle budget the coordinator granted,
	// index-aligned with Result.Bins.
	Capacities []float64
}

// ClusterResult merges a cluster run: every shard's full record plus
// the per-bin aggregate across shards.
type ClusterResult struct {
	Shards []ShardRun
	// Aggregate sums the machine-level counters (packets, drops,
	// cycles) across shards per bin; GlobalRate is the minimum across
	// shards and BufferBins the maximum. Per-query slices are nil —
	// they live in the shard records.
	Aggregate []BinStats
}

// TotalDrops sums the uncontrolled capture drops across all shards.
// Shards without a record (a worker that never joined a distributed
// run) count zero.
func (r *ClusterResult) TotalDrops() int {
	n := 0
	for i := range r.Shards {
		if r.Shards[i].Result == nil {
			continue
		}
		n += r.Shards[i].Result.TotalDrops()
	}
	return n
}

// TotalWirePkts sums the packets offered across all shards. Shards
// without a record count zero.
func (r *ClusterResult) TotalWirePkts() int {
	n := 0
	for i := range r.Shards {
		if r.Shards[i].Result == nil {
			continue
		}
		n += r.Shards[i].Result.TotalWirePkts()
	}
	return n
}

// Cluster runs N per-link Systems under one budget coordinator.
// Construct with NewCluster, call Run.
type Cluster struct {
	cfg   ClusterConfig
	nodes []*Node
	// coord is the budget coordinator, non-nil iff cfg.coordinated();
	// every node reaches it through a loopback transport.
	coord *control.Coordinator
}

// NewCluster builds a cluster of fresh Systems, one per shard. Each
// shard starts with an equal split of TotalCapacity and a seed offset
// from Base.Seed by its index. Shard names (defaults included) must be
// unique — the coordinator keys membership on them.
func NewCluster(cfg ClusterConfig, shards []Shard) *Cluster {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		panic("cluster: no shards")
	}
	c := &Cluster{cfg: cfg}
	seen := make(map[string]bool, len(shards))
	if cfg.coordinated() {
		c.coord = control.NewCoordinator(cfg.ShardPolicy, cfg.TotalCapacity)
	}
	for i, sh := range shards {
		scfg := cfg.Base
		scfg.Capacity = cfg.TotalCapacity / float64(len(shards))
		scfg.Seed = cfg.Base.Seed + uint64(i)*0x9e3779b97f4a7c15
		if cfg.Base.Workers == 0 {
			// Shards already run concurrently; default each shard's
			// query pool to inline execution instead of letting every
			// shard claim all cores.
			scfg.Workers = 1
		}
		name := sh.Name
		if name == "" {
			name = fmt.Sprintf("link%d", i)
		}
		if seen[name] {
			panic(fmt.Sprintf("cluster: duplicate shard name %q", name))
		}
		seen[name] = true
		n := NewNode(New(scfg, sh.Queries), nil, NodeConfig{Name: name, MinShare: sh.MinShare})
		n.src = sh.Source
		if c.coord != nil {
			n.tr = control.NewLoopback(c.coord, name, sh.MinShare)
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Shards exposes the per-shard Systems, mainly for tests.
func (c *Cluster) Shards() []*System {
	out := make([]*System, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.sys
	}
	return out
}

// Stream steps every shard through its trace in lockstep, coordinating
// the budget between bins and delivering each shard's records to the
// sink mk returns for it (mk itself is called once per shard, in index
// order, before the first bin; a nil mk or nil sink discards). Shards
// whose traces end early drop out; their budget is redistributed among
// the survivors. Like System.Stream it accumulates nothing, so a
// cluster with bounded sinks runs indefinitely in constant memory.
//
// Within a bin, sinks are invoked from the shard-runner pool: each
// shard's sink only ever sees that shard's stream (in order), but
// different shards' sinks run concurrently — a sink instance shared
// between shards must be safe for concurrent use.
func (c *Cluster) Stream(mk func(shard int, name string) Sink) {
	c.StreamContext(context.Background(), mk)
}

// StreamContext is Stream with cancellation: when ctx fires, every
// shard stops at its next bin boundary (each runner polls the same done
// channel System.StreamContext uses), the open intervals flush to their
// sinks, and all shard pipelines and pools are torn down before the
// call returns. It returns ctx.Err() after a cancellation and nil after
// every trace ends naturally.
func (c *Cluster) StreamContext(ctx context.Context, mk func(shard int, name string) Sink) error {
	done := ctx.Done()
	for i, n := range c.nodes {
		var sink Sink
		if mk != nil {
			sink = mk(i, n.name)
		}
		n.begin(n.src, sink, done)
	}
	pool := newStaticPool(min(c.cfg.Runners, len(c.nodes)) - 1)
	defer pool.close()
	stepNode := func(i int) { c.nodes[i].step() }
	for c.stepAll(pool, stepNode) {
		c.coordinate()
	}
	for _, n := range c.nodes {
		n.run.finish()
	}
	return ctx.Err()
}

// Run steps every shard through its trace in lockstep, coordinating the
// budget between bins, and returns the merged record. It is Stream into
// slices; long-running deployments should call Stream with bounded
// sinks instead.
func (c *Cluster) Run() *ClusterResult {
	res, _ := c.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation: the returned record covers every
// bin processed before ctx fired, and err is ctx.Err() if the run was
// cut short.
func (c *Cluster) RunContext(ctx context.Context) (*ClusterResult, error) {
	sinks := make([]*resultSink, len(c.nodes))
	err := c.StreamContext(ctx, func(i int, _ string) Sink {
		sinks[i] = newResultSink(c.nodes[i].sys.cfg.Scheme)
		return sinks[i]
	})
	res := &ClusterResult{}
	for i, n := range c.nodes {
		res.Shards = append(res.Shards, ShardRun{
			Name:       n.name,
			Result:     sinks[i].res,
			Capacities: binCapacities(sinks[i].res.Bins),
		})
	}
	res.Aggregate = aggregateBins(res.Shards)
	return res, err
}

// binCapacities extracts the per-bin budget column of a retained run.
func binCapacities(bins []BinStats) []float64 {
	caps := make([]float64, len(bins))
	for i := range bins {
		caps[i] = bins[i].Capacity
	}
	return caps
}

// stepAll advances every live shard by one bin, fanning the shards out
// over the run's pool (inline when Runners is 1), and reports whether
// any shard is still running.
// Determinism holds for any runner count for the same reasons as the
// execute stage's pool: each shard's step touches only shard-owned
// state, and everything cross-shard (coordination, aggregation) happens
// at the barrier afterwards, in shard-index order. Pipelined shards
// (Base.Workers >= 2, DESIGN.md, "Bin pipeline") compose with this: each shard
// owns its front goroutine and slot ring, the coordinator's
// setCapacity still lands between that shard's bins exactly as in a
// sequential shard, and a shard's front exits at end of trace before
// run.finish tears its execute pool down
// (TestConformance, the workers= rows of the cluster columns).
func (c *Cluster) stepAll(pool *staticPool, stepNode func(int)) bool {
	pool.run(len(c.nodes), stepNode)
	for _, n := range c.nodes {
		if !n.done {
			return true
		}
	}
	return false
}

// coordinate runs one loopback coordination round between bins, on the
// cluster goroutine after the step barrier: every node reports its
// demand (in shard-index order — the order every floating-point sum in
// the allocators runs in), the coordinator allocates over the nodes
// that reported, and every live node applies its grant. Nodes whose
// traces ended send a single done report and drop out; their budget
// redistributes to the survivors.
func (c *Cluster) coordinate() {
	if c.coord == nil {
		return // static split: initial equal capacities stand
	}
	for _, n := range c.nodes {
		n.report()
	}
	c.coord.AllocateRound()
	for _, n := range c.nodes {
		n.applyGrant()
	}
}

// aggregateBins merges per-shard bin records into machine-level bins.
// Shards need not have the same bin count — traces of different
// lengths, a cancelled run, or a worker that never produced a record
// (nil Result) all aggregate over whatever bins exist.
func aggregateBins(shards []ShardRun) []BinStats {
	maxBins := 0
	for _, sh := range shards {
		if sh.Result == nil {
			continue
		}
		if n := len(sh.Result.Bins); n > maxBins {
			maxBins = n
		}
	}
	out := make([]BinStats, maxBins)
	for i := range out {
		agg := &out[i]
		agg.GlobalRate = 1
		first := true
		for _, sh := range shards {
			if sh.Result == nil || i >= len(sh.Result.Bins) {
				continue
			}
			b := &sh.Result.Bins[i]
			if first {
				agg.Start = b.Start
				first = false
			}
			agg.Capacity += b.Capacity
			agg.WirePkts += b.WirePkts
			agg.DropPkts += b.DropPkts
			agg.AdmitPkts += b.AdmitPkts
			agg.WireBytes += b.WireBytes
			agg.Predicted += b.Predicted
			agg.Alloc += b.Alloc
			agg.Used += b.Used
			agg.Overhead += b.Overhead
			agg.Shed += b.Shed
			agg.Avail += b.Avail
			if b.GlobalRate < agg.GlobalRate {
				agg.GlobalRate = b.GlobalRate
			}
			if b.BufferBins > agg.BufferBins {
				agg.BufferBins = b.BufferBins
			}
		}
	}
	return out
}

// ShardPolicyByName maps the cross-shard coordinator policies exposed
// on command lines — "static" (no coordination), or any StrategyByName
// name ("mmfs_cpu", "mmfs_pkt", "eq_srates", "equal") — to a strategy.
func ShardPolicyByName(name string) (sched.Strategy, error) {
	if name == "static" {
		return nil, nil
	}
	s, err := StrategyByName(name)
	if err != nil {
		return nil, fmt.Errorf("loadshed: unknown shard policy %q (have static, equal, eq_srates, mmfs_cpu, mmfs_pkt)", name)
	}
	return s, nil
}
