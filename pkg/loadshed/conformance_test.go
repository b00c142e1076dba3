package loadshed

// conformance_test.go holds the determinism contract in one table: every
// execution mode (a row) run on every configuration (a column) must
// reproduce the column's sequential Run record for record, under one
// exact digest. A cell that cannot apply names its reason, and
// `go test -v -run TestConformance ./pkg/loadshed` prints the matrix.
//
// The contract holds because sketching is a pure function of the batch
// merged in index order, every query owns its RNG streams, per-bin
// results merge in query-index order, cluster coordination runs at a
// barrier in shard-index order, and a snapshot taken at an interval
// boundary carries all the cross-interval state there is.

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/detect"
	"repro/internal/features"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// sum is the exact digest of one record: sha256 over its Go-syntax
// rendering, which spells every float to the last bit and every map in
// key order.
type sum [sha256.Size]byte

func sumOf(v any) sum { return sha256.Sum256(fmt.Appendf(nil, "%+v", v)) }

// records is a Sink that digests a run inside its callbacks, so it
// holds for borrowed records too: the announced queries, and one sum per
// bin and per interval. An interval's Index is left out, because a
// restored system numbers its intervals from zero.
type records struct {
	queries   []string
	bins, ivs []sum
}

func (d *records) OnQuery(_ int, name string) { d.queries = append(d.queries, name) }
func (d *records) OnBin(b *BinStats)          { d.bins = append(d.bins, sumOf(*b)) }
func (d *records) OnInterval(iv *IntervalResults) {
	d.ivs = append(d.ivs, sumOf([]any{iv.ExportCycles, iv.Results}))
}

// replay feeds a retained run to a sink as if it were streaming.
func replay(res *RunResult, s Sink) {
	for i, name := range res.Queries {
		s.OnQuery(i, name)
	}
	for i := range res.Bins {
		s.OnBin(&res.Bins[i])
	}
	for i := range res.Intervals {
		s.OnInterval(&res.Intervals[i])
	}
}

func digest(res *RunResult) *records {
	d := &records{}
	replay(res, d)
	return d
}

func shardDigests(res *ClusterResult) []*records {
	var out []*records
	for _, sh := range res.Shards {
		out = append(out, digest(sh.Result))
	}
	return out
}

// head is the digest of the run's first bins and intervals.
func (d *records) head(bins, ivs int) *records {
	return &records{queries: d.queries, bins: d.bins[:bins], ivs: d.ivs[:ivs]}
}

// joined is the digest of a run cut into consecutive parts.
func joined(parts ...*records) *records {
	d := &records{queries: parts[0].queries}
	for _, p := range parts {
		d.bins = append(d.bins, p.bins...)
		d.ivs = append(d.ivs, p.ivs...)
	}
	return d
}

// diff names the first record where d departs from want, "" if none.
func (d *records) diff(want *records) string {
	if !slices.Equal(d.queries, want.queries) {
		return fmt.Sprintf("queries %v, want %v", d.queries, want.queries)
	}
	if len(d.bins) != len(want.bins) || len(d.ivs) != len(want.ivs) {
		return fmt.Sprintf("%d bins and %d intervals, want %d and %d", len(d.bins), len(d.ivs), len(want.bins), len(want.ivs))
	}
	for i := range want.bins {
		if d.bins[i] != want.bins[i] {
			return fmt.Sprintf("bin %d diverged", i)
		}
	}
	for i := range want.ivs {
		if d.ivs[i] != want.ivs[i] {
			return fmt.Sprintf("interval %d diverged", i)
		}
	}
	return ""
}

// recorded is a trace generated once per test binary and replayed
// read-only by every cell (the engine never writes a batch it is handed:
// TestRunDoesNotMutateSource).
type recorded struct {
	batches []pkt.Batch
	bin     time.Duration
}

func record(src trace.Source) recorded { return recorded{trace.Record(src), src.TimeBin()} }

func (r recorded) src() trace.Source { return r.span(0, len(r.batches)) }
func (r recorded) span(lo, hi int) trace.Source {
	return trace.NewMemorySource(r.batches[lo:hi], r.bin)
}
func (r recorded) perInterval() int { return int(time.Second / r.bin) }

const clusterDur = 3 * time.Second

var (
	cescaTrace = sync.OnceValue(func() recorded {
		return record(trace.NewGenerator(trace.CESCA2(9, 4*time.Second, 0.4)))
	})
	cescaCapacity = sync.OnceValue(func() float64 {
		return MeasureCapacity(cescaTrace().src(), snapshotTestQueries(), 77) * 0.7
	})
	// driftTrace drifts gradually from 6 s on; the detector fires on it.
	driftTrace = sync.OnceValue(func() recorded {
		tc := trace.CESCA2(43, 14*time.Second, 0.2)
		tc.Anomalies = []trace.Anomaly{trace.NewGradualDrift(6*time.Second, 8*time.Second, 8000)}
		return record(trace.NewGenerator(tc))
	})
	driftCapacity = sync.OnceValue(func() float64 {
		return MeasureCapacity(driftTrace().src(), snapshotTestQueries(), 77) * 0.7
	})
	dropTrace    = sync.OnceValue(func() recorded { return record(testSource(12, 6*time.Second)) })
	quietTrace   = sync.OnceValue(func() recorded { return record(testSource(13, 5*time.Second)) })
	clusterLinks = sync.OnceValue(func() (out []recorded) {
		for _, sh := range testClusterShards(clusterDur) {
			out = append(out, record(sh.Source))
		}
		return out
	})
	clusterTotal = sync.OnceValue(func() float64 { return clusterCapacity(testClusterShards(clusterDur)) })
)

// dropHeavyConfig overloads the predictive engine into DAG drops with
// every per-query stream in play: cost spikes, custom shedding, a
// selfish p2p-detector arriving at the interval-2 boundary and a second
// counter joining mid-interval, at bin 13.
func dropHeavyConfig(workers int) Config {
	return Config{
		Scheme: Predictive, Capacity: 2e6, BufferBins: 1, Strategy: MMFSPkt(), Seed: 42,
		SpikeProb: 0.02, CustomShedding: true, Workers: workers,
		Arrivals: []Arrival{
			{AtBin: 20, Make: func() queries.Query { return NewSelfishP2P(QueryConfig{Seed: 4}) }},
			{AtBin: 13, Make: func() queries.Query { return queries.NewCounter(queries.Config{Seed: 4}) }},
		},
	}
}

// scribbleSource replays a recorded trace as a recycling source at its
// most hostile: every delivery is a private copy, and Recycle zeroes the
// copy's packets and payload bytes on the spot — what a live listener's
// next datagrams would do to them a moment later. A run over it equals a
// run over the plain recording only if the engine never reads a batch
// after handing it back.
type scribbleSource struct {
	trace.MemorySource
	recycled int
}

func (s *scribbleSource) NextBatch() (pkt.Batch, bool) {
	b, ok := s.MemorySource.NextBatch()
	if !ok {
		return b, false
	}
	b.Pkts = slices.Clone(b.Pkts)
	for i := range b.Pkts {
		b.Pkts[i].Payload = bytes.Clone(b.Pkts[i].Payload)
	}
	return b, true
}

func (s *scribbleSource) Recycle(b pkt.Batch) {
	s.recycled++
	for i := range b.Pkts {
		clear(b.Pkts[i].Payload)
	}
	clear(b.Pkts)
}

// column is one configuration. Exactly one of cfg (with queries), spec
// and cluster builds it.
type column struct {
	name    string
	trace   func() recorded
	cut     int // an interval boundary mid-trace, where the stop-and-resume rows cut
	cfg     func(workers int) Config
	queries func() []queries.Query
	spec    func(workers int) ShardSpec
	cluster func(runners, workers int) ClusterConfig
	fixture string // an earlier build's snapshot of this column at cut
	// premise is what the reference run must exhibit for the rows to
	// mean anything.
	premise func(t *testing.T, ref *RunResult)
}

// config is the part of a System column's Config the rows' na checks
// read — scheme, custom shedding, detector, arrivals — without building
// the System; zero for a cluster.
func (c *column) config() Config {
	if c.spec != nil {
		sp := c.spec(1)
		scheme, _ := ParseScheme(sp.Scheme)
		return Config{Scheme: scheme, CustomShedding: sp.CustomShedding, ChangeDetection: sp.ChangeDetection}
	}
	if c.cfg != nil {
		return c.cfg(1)
	}
	return Config{}
}

func (c *column) sys(t *testing.T, workers int) *System {
	t.Helper()
	if c.spec == nil {
		return New(c.cfg(workers), c.queries())
	}
	sp := c.spec(workers)
	sys, err := sp.NewSystem()
	if err != nil {
		t.Fatalf("spec system: %v", err)
	}
	return sys
}

// shards builds the cluster's shards over sources open returns for the
// recorded links.
func (c *column) shards(open func(recorded) trace.Source) []Shard {
	shs := minShareClusterShards(clusterDur)
	for i, l := range clusterLinks() {
		shs[i].Source = open(l)
	}
	return shs
}

func (c *column) newCluster(runners, workers int) *Cluster {
	return NewCluster(c.cluster(runners, workers), c.shards(recorded.src))
}

func clusterConfig(policy sched.Strategy) func(runners, workers int) ClusterConfig {
	return func(runners, workers int) ClusterConfig {
		return ClusterConfig{
			Base:          Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 42, Workers: workers},
			TotalCapacity: clusterTotal(), ShardPolicy: policy, Runners: runners,
		}
	}
}

func conformanceColumns() []*column {
	cescaSpec := func(scheme string) func(int) ShardSpec {
		return func(w int) ShardSpec {
			sp := migrationSpec(w, cescaCapacity())
			sp.Scheme = scheme
			return sp
		}
	}
	withPredictor := func(kind string) func(int) Config {
		return func(w int) Config {
			return Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: cescaCapacity(),
				Workers: w, Predictor: predictorKinds[kind]}
		}
	}
	return []*column{
		{name: "drop-heavy", trace: dropTrace, cfg: dropHeavyConfig,
			queries: func() []queries.Query { return AllQueries(QueryConfig{Seed: 42}) },
			premise: func(t *testing.T, ref *RunResult) {
				if ref.TotalDrops() == 0 || len(ref.Queries) != 12 {
					t.Fatalf("%d DAG drops over queries %v: want drops and both arrivals", ref.TotalDrops(), ref.Queries)
				}
			}},
		{name: "spec", trace: cescaTrace, cut: 20, spec: cescaSpec("predictive"), fixture: "testdata/snapshot_pr15.gob"},
		{name: "spec+detect", trace: driftTrace, cut: 90,
			spec: func(w int) ShardSpec {
				sp := migrationSpec(w, driftCapacity())
				sp.ChangeDetection = true
				return sp
			},
			premise: func(t *testing.T, ref *RunResult) {
				if !slices.ContainsFunc(ref.Bins[:90], func(b BinStats) bool { return b.Change }) {
					t.Fatal("no change verdict before the cut: a snapshot there carries a cold detector")
				}
			}},
		{name: "slr", trace: cescaTrace, cut: 20, cfg: withPredictor("slr"), queries: snapshotTestQueries},
		{name: "ewma", trace: cescaTrace, cut: 20, cfg: withPredictor("ewma"), queries: snapshotTestQueries},
		{name: "reactive", trace: cescaTrace, cut: 20, spec: cescaSpec("reactive")},
		{name: "noshed", trace: quietTrace, cut: 20, spec: func(w int) ShardSpec {
			sp := ShardSpec{Scheme: "none", Seed: 5, Workers: w}
			for _, q := range StandardQueries(QueryConfig{}) {
				sp.Queries = append(sp.Queries, QuerySpec{Kind: q.Name(), Seed: 5})
			}
			return sp
		}},
		{name: "cluster", cluster: clusterConfig(MMFSCPU())},
		{name: "static", cluster: clusterConfig(nil)},
		{name: "eq_srates", cluster: clusterConfig(EqualRates(true))},
	}
}

// reference is a column's sequential Run: one record per shard (a
// System is one shard) and their digests, which every row is held to.
type reference struct {
	sys     *System // after its run; nil for a cluster
	runs    []*RunResult
	digests []*records
}

// references caches each column's reference by name: every cell only
// reads it.
var references sync.Map

func (c *column) reference(t *testing.T) *reference {
	if ref, ok := references.Load(c.name); ok {
		return ref.(*reference)
	}
	ref := &reference{}
	if c.cluster != nil {
		for _, sh := range c.newCluster(1, 1).Run().Shards {
			ref.runs = append(ref.runs, sh.Result)
		}
	} else {
		ref.sys = c.sys(t, 1)
		ref.runs = []*RunResult{ref.sys.Run(c.trace().src())}
	}
	for _, r := range ref.runs {
		ref.digests = append(ref.digests, digest(r))
	}
	if c.premise != nil {
		c.premise(t, ref.runs[0])
	}
	// A bin's totals are its queries' figures merged in index order, the
	// one summation order every cell's agreement rests on. No cell can see
	// a fixed reorder: it moves the reference and every mode alike.
	for _, run := range ref.runs {
		for i, b := range run.Bins {
			used, alloc := 0.0, 0.0
			for q := range b.QueryUsed {
				used, alloc = used+b.QueryUsed[q], alloc+b.QueryPred[q]*b.Rates[q]
			}
			if used != b.Used || alloc != b.Alloc {
				t.Fatalf("bin %d: Used %v and Alloc %v, index-order sums %v and %v", i, b.Used, b.Alloc, used, alloc)
			}
		}
	}
	references.Store(c.name, ref)
	return ref
}

// row is one execution mode. na says why it cannot apply to a column,
// "" when it can; run returns digests each held to the reference: one
// per shard of a cluster, or one per variant of the mode on a System.
type row struct {
	name string
	na   func(c *column) string
	run  func(t *testing.T, c *column, ref *reference) []*records
}

// unless is why, or "" when the row applies.
func unless(applies bool, why string) string {
	if applies {
		return ""
	}
	return why
}

func onSystems(c *column) string {
	return unless(c.cluster == nil, "a mode of one System; cluster nodes ride every cluster row")
}

func onClusters(c *column) string {
	return unless(c.cluster != nil, "a single System has no shard runners or coordinator")
}

func snapshottable(c *column) string {
	return cmp.Or(unless(c.cluster == nil, "a Cluster is not snapshotted whole; its nodes are spec-built shards"),
		unless(!c.config().CustomShedding, "custom shedding refuses Snapshot"))
}

func specBuilt(c *column) string {
	return cmp.Or(snapshottable(c), unless(c.spec != nil, "a ShardSpec names no predictor: only default-MLR shards are adoptable"))
}

func budgeted(c *column) string {
	return cmp.Or(onSystems(c), unless(c.config().Scheme != NoShed, "NoShed has no budget for a coordinator to grant"))
}

// streamed runs sys over the column's trace through Stream, digesting
// the borrowed records inside the callbacks, and holds a RollingStats
// teed onto the stream to one fed the reference's retained records.
func streamed(t *testing.T, c *column, ref *reference, sys *System) []*records {
	d, roll, want := &records{}, NewRollingStats(40), NewRollingStats(40)
	sys.Stream(c.trace().src(), Tee(d, roll))
	replay(ref.runs[0], want)
	if got, want := roll.Snapshot(), want.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("rolling snapshot diverged:\n got %+v\nwant %+v", got, want)
	}
	return []*records{d}
}

func clusterStream(c *column, runners, workers int) (out []*records) {
	c.newCluster(runners, workers).Stream(func(int, string) Sink {
		out = append(out, &records{})
		return out[len(out)-1]
	})
	return out
}

// streamRow streams the column sequentially (n = 1) or through the bin
// pipeline, a cluster's shards on two runners.
func streamRow(n int) row {
	name := "stream"
	if n > 1 {
		name = fmt.Sprintf("workers=%d", n)
	}
	return row{name: name, run: func(t *testing.T, c *column, ref *reference) []*records {
		if c.cluster != nil {
			return clusterStream(c, min(n, 2), n)
		}
		return streamed(t, c, ref, c.sys(t, n))
	}}
}

func runnersRow(n int) row {
	return row{name: fmt.Sprintf("runners=%d", n), na: onClusters, run: func(t *testing.T, c *column, ref *reference) []*records {
		return shardDigests(c.newCluster(n, 1).Run())
	}}
}

// liveAddRow calls AddQuery from a sink callback — the way the admin
// plane calls it — five bins before the first arrival's interval
// boundary, which it joins there: the run is the restart that scheduled
// the arrival. The other arrivals stay scheduled.
func liveAddRow(workers int) row {
	return row{name: fmt.Sprintf("live-add/workers=%d", workers), na: func(c *column) string {
		return unless(len(c.config().Arrivals) > 0, "no Arrivals to register live")
	}, run: func(t *testing.T, c *column, ref *reference) []*records {
		cfg := c.cfg(workers)
		late := cfg.Arrivals[0]
		cfg.Arrivals = cfg.Arrivals[1:]
		sys, d, bins := New(cfg, c.queries()), &records{}, 0
		trigger := SinkFuncs{Bin: func(*BinStats) {
			if bins++; bins == late.AtBin-5 {
				if err := sys.AddQuery(late.Make()); err != nil {
					t.Errorf("AddQuery: %v", err)
				}
			}
		}}
		sys.Stream(c.trace().src(), Tee(d, trigger))
		return []*records{d}
	}}
}

func decodeCheckpoint(t *testing.T, blob []byte) *ShardCheckpoint {
	t.Helper()
	cp, err := DecodeShardCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	return cp
}

// adopt rebuilds a checkpointed shard from its spec and restores its
// state, as an adopting worker does.
func adopt(t *testing.T, cp *ShardCheckpoint) *System {
	t.Helper()
	sys, err := cp.Spec.NewSystem()
	if err == nil {
		err = sys.Restore(cp.Snap)
	}
	if err != nil {
		t.Fatalf("adopt the checkpoint at bin %d: %v", cp.Bin, err)
	}
	return sys
}

func streamNode(t *testing.T, node *Node, src trace.Source) *records {
	t.Helper()
	d := &records{}
	if err := node.StreamContext(context.Background(), src, d); err != nil {
		t.Fatalf("node stream: %v", err)
	}
	return d
}

var conformanceRows = []row{
	streamRow(1), streamRow(2), streamRow(4), streamRow(7), runnersRow(2), runnersRow(8),
	{name: "recycled", run: func(t *testing.T, c *column, ref *reference) (out []*records) {
		// Over sources that scribble on every batch handed back, a run
		// equals the plain one only if nothing reads a batch after its
		// Recycle; and every batch must come back exactly once.
		var srcs []*scribbleSource
		scribble := func(r recorded) trace.Source {
			srcs = append(srcs, &scribbleSource{MemorySource: *trace.NewMemorySource(r.batches, r.bin)})
			return srcs[len(srcs)-1]
		}
		if c.cluster != nil {
			out = shardDigests(NewCluster(c.cluster(2, 2), c.shards(scribble)).Run())
		} else {
			for _, workers := range []int{1, 4} {
				out = append(out, digest(c.sys(t, workers).Run(scribble(c.trace()))))
			}
		}
		for _, s := range srcs {
			if s.recycled != len(s.Batches) {
				t.Errorf("%d of %d batches recycled", s.recycled, len(s.Batches))
			}
		}
		return out
	}},
	{name: "snapshot", na: snapshottable, run: func(t *testing.T, c *column, ref *reference) []*records {
		rec, s1, s2 := c.trace(), c.sys(t, 1), c.sys(t, 1)
		head := digest(s1.Run(rec.span(0, c.cut)))
		snap, err := s1.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if err := s2.Restore(encodeDecode(t, snap)); err != nil {
			t.Fatalf("restore: %v", err)
		}
		return []*records{joined(head, digest(s2.Run(rec.span(c.cut, len(rec.batches)))))}
	}},
	{name: "restore-earlier", na: func(c *column) string {
		return unless(c.fixture != "", "no earlier build's snapshot of this configuration")
	}, run: func(t *testing.T, c *column, ref *reference) []*records {
		raw, err := os.ReadFile(c.fixture)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(bytes.NewReader(raw))
		if err != nil || snap.ShedExtOps == 0 {
			t.Fatalf("fixture decodes with %v and %d shed-stream ops; it must shed", err, snap.ShedExtOps)
		}
		rec, sys := c.trace(), c.sys(t, 1)
		if err := sys.Restore(snap); err != nil {
			t.Fatalf("restore: %v", err)
		}
		tail := digest(sys.Run(rec.span(c.cut, len(rec.batches))))
		if sys.shedOps != ref.sys.shedOps {
			t.Errorf("shed op counter: resumed %d, uninterrupted %d", sys.shedOps, ref.sys.shedOps)
		}
		return []*records{joined(ref.digests[0].head(c.cut, c.cut/rec.perInterval()), tail)}
	}},
	{name: "migrate", na: specBuilt, run: func(t *testing.T, c *column, ref *reference) []*records {
		// Drain the pipelined shard at the cut through its final
		// checkpoint, and adopt it from the blob as this build and as the
		// build whose ShardSpec still carried NoPipeline wrote it.
		spec, rec := c.spec(4), c.trace()
		tr := &captureTransport{drainAfterBin: int64(c.cut)}
		node := NewNode(c.sys(t, 4), tr, NodeConfig{Name: "mig", Spec: spec})
		head := streamNode(t, node, rec.src())
		blobs := tr.checkpoints()
		if !node.Drained() || len(blobs) != 1 || len(head.bins) != c.cut {
			t.Fatalf("drained %v after %d bins with %d checkpoints; want a drain at %d with the final one alone",
				node.Drained(), len(head.bins), len(blobs), c.cut)
		}
		cp := decodeCheckpoint(t, blobs[0])
		if !cp.Final || cp.Node != "mig" || cp.Bin != int64(c.cut) {
			t.Fatalf("final checkpoint = {node %q, bin %d, final %v}, want {mig, %d, true}", cp.Node, cp.Bin, cp.Final, c.cut)
		}
		var out []*records
		for _, cp := range []*ShardCheckpoint{cp, legacyCheckpoint(t, cp)} {
			out = append(out, joined(head, digest(adopt(t, cp).Run(ResumeSource(rec.src(), cp.Bin)))))
		}
		return out
	}},
	{name: "migrate-chained", na: specBuilt, run: func(t *testing.T, c *column, ref *reference) []*records {
		// Two drains deep, the second hop's bins and checkpoint stay
		// absolute only through NodeConfig.BinOffset.
		spec, rec := c.spec(1), c.trace()
		hop := func(sys *System, from int64, drainAt int) (*records, *ShardCheckpoint) {
			tr := &captureTransport{drainAfterBin: int64(drainAt)}
			node := NewNode(sys, tr, NodeConfig{Name: "hop", Spec: spec, BinOffset: from})
			d := streamNode(t, node, ResumeSource(rec.src(), from))
			blobs := tr.checkpoints()
			if !node.Drained() || len(blobs) == 0 {
				t.Fatalf("hop from bin %d ran out instead of draining at %d", from, drainAt)
			}
			cp := decodeCheckpoint(t, blobs[len(blobs)-1])
			if cp.Bin != int64(drainAt) {
				t.Fatalf("hop from bin %d checkpointed at bin %d, want absolute %d", from, cp.Bin, drainAt)
			}
			return d, cp
		}
		per := rec.perInterval()
		d1, cp1 := hop(c.sys(t, 1), 0, per)
		d2, cp2 := hop(adopt(t, cp1), cp1.Bin, 3*per)
		return []*records{joined(d1, d2, digest(adopt(t, cp2).Run(ResumeSource(rec.src(), cp2.Bin))))}
	}},
	{name: "checkpoint-periodic", na: func(c *column) string {
		return cmp.Or(specBuilt(c), budgeted(c))
	}, run: func(t *testing.T, c *column, ref *reference) []*records {
		// Every interior boundary ships a checkpoint to a loopback
		// coordinator; a system adopted from the last one retained
		// finishes the run.
		spec, rec := c.spec(1), c.trace()
		coord := NewCoordinator(MMFSCPU(), ref.sys.cfg.Capacity)
		tr := &lastCheckpoint{NodeTransport: NewLoopback(coord, "w0", 0)}
		node := NewNode(c.sys(t, 1), tr, NodeConfig{Name: "w0", CheckpointEvery: 1, Spec: spec})
		d := streamNode(t, node, rec.src())
		n := int64(len(rec.batches)/rec.perInterval() - 1)
		if node.CheckpointsSent() != n || coord.CheckpointsStored() != n || node.CheckpointErrors() != 0 {
			t.Fatalf("%d checkpoints sent, %d stored, %d errors; want %d, %d, 0",
				node.CheckpointsSent(), coord.CheckpointsStored(), node.CheckpointErrors(), n, n)
		}
		bin := coord.Status()[0].CheckpointBin
		cp := decodeCheckpoint(t, tr.blob)
		if cp.Final || cp.Bin != bin || bin != n*int64(rec.perInterval()) {
			t.Fatalf("retained checkpoint at bin %d (final %v), want the periodic one at %d", bin, cp.Final, n*int64(rec.perInterval()))
		}
		tail := digest(adopt(t, cp).Run(ResumeSource(rec.src(), cp.Bin)))
		return []*records{joined(d.head(int(bin), int(n)), tail)}
	}},
	{name: "checkpoint-off", na: onSystems, run: func(t *testing.T, c *column, ref *reference) []*records {
		tr := &captureTransport{}
		node := NewNode(c.sys(t, 1), tr, NodeConfig{Name: "off"})
		d := streamNode(t, node, c.trace().src())
		if n := len(tr.checkpoints()); n != 0 || node.CheckpointsSent() != 0 {
			t.Fatalf("%d checkpoints shipped with CheckpointEvery=0", n)
		}
		return []*records{d}
	}},
	{name: "grant-loss", na: budgeted, run: func(t *testing.T, c *column, ref *reference) []*records {
		// A link that loses every grant leaves the node shedding on its
		// own budget: coordination is advisory. A link that grants must
		// move the run, or the loss proves nothing.
		budget := ref.sys.cfg.Capacity / 2
		run := func(tr NodeTransport) *records {
			return streamNode(t, NewNode(c.sys(t, 1), tr, NodeConfig{Name: "w0"}), c.trace().src())
		}
		lossy := &captureTransport{}
		got := run(lossy)
		if len(lossy.reports) == 0 || lossy.refused == 0 {
			t.Fatalf("%d reports delivered, %d grants asked for: want reports through and every grant lost", len(lossy.reports), lossy.refused)
		}
		if run(&captureTransport{capacity: budget}).diff(ref.digests[0]) == "" {
			t.Fatal("live grants left the run unmoved; grant loss is untestable here")
		}
		return []*records{got}
	}},
	liveAddRow(1), liveAddRow(4),
	{name: "detector-never-fires", na: func(c *column) string {
		cfg := c.config()
		return cmp.Or(unless(c.cluster == nil, "shards run without the detector"),
			unless(cfg.Scheme == Predictive, "the detector runs under the predictive scheme only"),
			unless(!cfg.ChangeDetection, "this column's detector fires; the spec column is its off twin"))
	}, run: func(t *testing.T, c *column, ref *reference) []*records {
		// A detector that observes every bin but cannot fire (+Inf
		// thresholds, planted directly: the engine has no threshold
		// option) writes no engine state back, and the detector-off run
		// carries no change state at all.
		for i, b := range ref.runs[0].Bins {
			if b.Change || b.ChangeScore != 0 {
				t.Fatalf("bin %d: detector-off run carries change state", i)
			}
		}
		never := func() *detect.Detector {
			return detect.New(detect.Config{ResidualLambda: math.Inf(1), DistThreshold: math.Inf(1)}, features.NumFeatures)
		}
		sys := c.sys(t, 1)
		sys.det = never()
		res := sys.Run(c.trace().src())
		if reflect.DeepEqual(sys.det.State(), never().State()) {
			t.Fatal("the planted detector observed nothing")
		}
		return []*records{digest(res)}
	}},
	{name: "isolated", na: func(c *column) string {
		return unless(c.cluster != nil && c.cluster(1, 1).ShardPolicy == nil, "only a static split decomposes into isolated Systems")
	}, run: func(t *testing.T, c *column, ref *reference) []*records {
		cfg, shards := c.cluster(1, 1), c.shards(recorded.src)
		var out []*records
		for i, sh := range shards {
			scfg := cfg.Base
			scfg.Seed += uint64(i) * 0x9e3779b97f4a7c15
			scfg.Capacity = cfg.TotalCapacity / float64(len(shards))
			out = append(out, digest(New(scfg, sh.Queries).Run(sh.Source)))
		}
		return out
	}},
	{name: "oracle", na: onClusters, run: func(t *testing.T, c *column, ref *reference) []*records {
		return shardDigests(oracleClusterRun(c.cluster(1, 1), c.shards(recorded.src)))
	}},
}

// TestConformance runs every row on every column and holds each
// applicable cell to the column's reference digests.
func TestConformance(t *testing.T) {
	cols := conformanceColumns()
	grid := make([][]string, len(conformanceRows))
	for ri := range grid {
		grid[ri] = slices.Repeat([]string{"-"}, len(cols))
	}
	var notes []string
	for ci, c := range cols {
		t.Run(c.name, func(t *testing.T) {
			c.reference(t)
			for ri, r := range conformanceRows {
				switch na, ok := runCell(t, r.name, c, r); {
				case na != "":
					if !slices.Contains(notes, na) {
						notes = append(notes, na)
					}
					grid[ri][ci] = fmt.Sprintf("n/a[%d]", slices.Index(notes, na)+1)
				case ok:
					grid[ri][ci] = "ok"
				default:
					grid[ri][ci] = "FAIL"
				}
			}
		})
	}
	if !testing.Verbose() {
		return
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, c := range cols {
		fmt.Fprintf(w, "\t%s", c.name)
	}
	for ri, r := range conformanceRows {
		fmt.Fprintf(w, "\n%s\t%s", r.name, strings.Join(grid[ri], "\t"))
	}
	w.Flush()
	for i, why := range notes {
		fmt.Fprintf(&b, "\n[%d] %s", i+1, why)
	}
	t.Log("determinism contract, rows x columns:\n" + b.String())
}

// runCell runs row r on column c as t's subtest name and holds every
// record it returns to the column's reference. It returns why the cell
// does not apply ("" when it ran) and whether it passed.
func runCell(t *testing.T, name string, c *column, r row) (na string, ok bool) {
	if r.na != nil {
		if na = r.na(c); na != "" {
			return na, false
		}
	}
	return "", t.Run(name, func(t *testing.T) {
		ref := c.reference(t)
		for i, got := range r.run(t, c, ref) {
			if msg := got.diff(ref.digests[i%len(ref.digests)]); msg != "" {
				t.Errorf("record %d: %s", i, msg)
			}
		}
	})
}

// conform runs cells of the table as subtests of t, each named
// "column/row", or "name:column/row" to run it under another name. A
// cell that does not apply fails.
func conform(t *testing.T, cells ...string) {
	cols := conformanceColumns()
	for _, cl := range cells {
		name, at, renamed := strings.Cut(cl, ":")
		if !renamed {
			name, at = "", cl
		}
		col, rname, _ := strings.Cut(at, "/")
		ci := slices.IndexFunc(cols, func(c *column) bool { return c.name == col })
		ri := slices.IndexFunc(conformanceRows, func(r row) bool { return r.name == rname })
		if ci < 0 || ri < 0 {
			t.Fatalf("no cell %s", at)
		}
		if na, _ := runCell(t, cmp.Or(name, rname), cols[ci], conformanceRows[ri]); na != "" {
			t.Errorf("cell %s does not apply: %s", at, na)
		}
	}
}

// The contract's clauses by name: each runs cells of the table that hold
// it, so `-run` can pick one clause out of the table.

func TestRunDeterministic(t *testing.T)                         { conform(t, "drop-heavy/stream") }
func TestWorkerPoolDeterminism(t *testing.T)                    { conform(t, "drop-heavy/workers=7") }
func TestWorkerPoolDeterminismReference(t *testing.T)           { conform(t, "noshed/workers=7") }
func TestRollingStatsPipelinedStream(t *testing.T)              { conform(t, "spec/workers=4") }
func TestSnapshotCarriesDetectorState(t *testing.T)             { conform(t, "spec+detect/snapshot") }
func TestRestoreSnapshotOfEarlierBuild(t *testing.T)            { conform(t, "spec/restore-earlier") }
func TestChainedMigrationAbsoluteBins(t *testing.T)             { conform(t, "spec/migrate-chained") }
func TestPeriodicCheckpointResumeLoopback(t *testing.T)         { conform(t, "spec/checkpoint-periodic") }
func TestCheckpointEveryZeroUntouched(t *testing.T)             { conform(t, "spec/checkpoint-off") }
func TestNodeFailOpenUnderGrantLoss(t *testing.T)               { conform(t, "spec/grant-loss") }
func TestChangeDetectionOffBitIdentical(t *testing.T)           { conform(t, "spec/detector-never-fires") }
func TestClusterDeterminism(t *testing.T)                       { conform(t, "cluster/runners=8") }
func TestClusterPipelinedShardsDeterminism(t *testing.T)        { conform(t, "cluster/workers=2") }
func TestClusterStaticSplitMatchesIsolatedSystems(t *testing.T) { conform(t, "static/isolated") }

func TestStreamMatchesRun(t *testing.T) {
	conform(t, "system:drop-heavy/stream", "cluster:cluster/stream")
}

func TestEngineNeverReadsARecycledBatch(t *testing.T) {
	conform(t, "system:drop-heavy/recycled", "cluster:cluster/recycled")
}

func TestPipelineMatchesSequential(t *testing.T) {
	conform(t, "drop-heavy/workers=2", "drop-heavy/workers=4", "drop-heavy/workers=7")
}

func TestLiveAddMatchesArrivalRestart(t *testing.T) {
	conform(t, "workers=1:drop-heavy/live-add/workers=1", "workers=4:drop-heavy/live-add/workers=4")
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	conform(t, "mlr:spec/snapshot", "slr:slr/snapshot", "ewma:ewma/snapshot")
}

func TestPlannedMigrationBitIdentical(t *testing.T) {
	conform(t, "sequential:spec/migrate-chained", "pipelined:spec/migrate")
}

func TestLoopbackClusterMatchesInProcess(t *testing.T) {
	conform(t, "mmfs_cpu/seq:cluster/oracle", "mmfs_cpu/runners4:cluster/runners=8",
		"mmfs_cpu/pipelined:cluster/workers=4", "eq_srates/runners2:eq_srates/oracle")
}
