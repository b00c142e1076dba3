package loadshed

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/sched"
	"repro/internal/trace"
)

// testClusterShards builds a small asymmetric 3-link cluster: link 0
// swamped by an on/off DDoS for the middle half of the run, the other
// two calm.
func testClusterShards(dur time.Duration) []Shard {
	links := AsymmetricMix(3, dur, 0.05, 3)
	shards := make([]Shard, len(links))
	for i, l := range links {
		shards[i] = Shard{
			Name:   l.Name,
			Source: trace.NewGenerator(l.Config),
			Queries: []queries.Query{
				queries.NewFlows(queries.Config{Seed: uint64(i)}),
				queries.NewCounter(queries.Config{Seed: uint64(i)}),
			},
		}
	}
	return shards
}

// clusterCapacity sizes the machine for the headline scenario: the calm
// links fit comfortably, the attacked link's full (attack-inclusive)
// demand does not — only budget moved off the calm links can absorb it.
func clusterCapacity(shards []Shard) float64 {
	var total float64
	for i, sh := range shards {
		c := MeasureCapacity(sh.Source, sh.Queries, 77)
		if i == 0 {
			c *= 0.6
		}
		total += c
	}
	return total
}

// TestClusterCoordinatorAbsorbsAsymmetricOverload is the headline
// scenario: a DDoS swamps one link while the others idle. The
// coordinator steals budget from the idle links, so aggregate accuracy
// must beat the static equal split, and the attacked link must receive
// more than its 1/N share during the attack.
func TestClusterCoordinatorAbsorbsAsymmetricOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster accuracy comparison is slow")
	}
	const dur = 12 * time.Second
	total := clusterCapacity(testClusterShards(dur))
	run := func(policy sched.Strategy) *ClusterResult {
		return NewCluster(ClusterConfig{
			Base:          Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 42},
			TotalCapacity: total,
			ShardPolicy:   policy,
			Runners:       4,
		}, testClusterShards(dur)).Run()
	}
	coord, static := run(MMFSCPU()), run(nil)

	aggErr := func(res *ClusterResult) float64 {
		shards := testClusterShards(dur) // fresh sources and metric queries
		var sum float64
		n := 0
		for i, sh := range res.Shards {
			ref := Reference(shards[i].Source, shards[i].Queries, 77)
			for _, e := range MeanErrors(shards[i].Queries, sh.Result, ref) {
				sum += e
				n++
			}
		}
		return sum / float64(n)
	}
	ce, se := aggErr(coord), aggErr(static)
	t.Logf("aggregate mean error: coordinated %.4f, static %.4f", ce, se)
	if ce >= se {
		t.Fatalf("coordinated error %.4f not better than static split %.4f", ce, se)
	}

	// During the attack window the hot shard must hold more than its
	// equal share of the machine.
	hot := coord.Shards[0].Result.Bins
	nBins := len(hot)
	var peak float64
	for _, b := range hot[nBins/4 : nBins*3/4] {
		peak = max(peak, b.Capacity)
	}
	if equal := total / 3; peak <= equal {
		t.Fatalf("coordinator never granted the attacked link more than its equal share (peak %.3g <= %.3g)", peak, equal)
	}
}

// benchClusters records four asymmetric links once and returns a
// builder of fresh clusters over them (fresh queries, recorded sources)
// at half the links' summed capacity.
func benchClusters(dur time.Duration) func(policy sched.Strategy, runners int) *Cluster {
	links := AsymmetricMix(3, dur, 0.05, 4)
	linkQueries := func(i int) []queries.Query {
		return []queries.Query{queries.NewFlows(queries.Config{Seed: uint64(i)}), queries.NewCounter(queries.Config{Seed: uint64(i)})}
	}
	srcs := make([]*trace.MemorySource, len(links))
	var total float64
	for i, l := range links {
		g := trace.NewGenerator(l.Config)
		srcs[i] = trace.NewMemorySource(trace.Record(g), g.TimeBin())
		total += MeasureCapacity(srcs[i], linkQueries(i), 77)
	}
	return func(policy sched.Strategy, runners int) *Cluster {
		shards := make([]Shard, len(links))
		for i, l := range links {
			shards[i] = Shard{Name: l.Name, Source: srcs[i], Queries: linkQueries(i)}
		}
		return NewCluster(ClusterConfig{
			Base:          Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 42},
			TotalCapacity: total / 2,
			ShardPolicy:   policy,
			Runners:       runners,
		}, shards)
	}
}

// BenchmarkCluster prices the cluster loop itself: four pre-recorded
// links stepped in lockstep, swept over runner counts. On one CPU the
// series is flat (no pool overhead); otherwise it scales with cores.
//
//	go test -bench Cluster -benchtime 5x ./pkg/loadshed
func BenchmarkCluster(b *testing.B) {
	cluster := benchClusters(3 * time.Second)
	for _, runners := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("runners=%d", runners), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cluster(MMFSCPU(), runners).Run()
			}
		})
	}
}

// TestStandaloneNodeRetainsNothingPerBin: a -worker runs its Node for
// the life of the process, so the Node itself must hold no per-bin
// history — whatever is kept is the sink's choice.
func TestStandaloneNodeRetainsNothingPerBin(t *testing.T) {
	const bins = 600
	sys := New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 7, Capacity: 5e6, Workers: 1}, stdQueries())
	node := NewNode(sys, nil, NodeConfig{Name: "w0"})
	src := trace.NewGenerator(trace.Config{Seed: 12, MaxBins: bins, PacketsPerSec: 2000})
	if err := node.StreamContext(context.Background(), src, DiscardSink{}); err != nil {
		t.Fatal(err)
	}
	if node.bin() != bins {
		t.Fatalf("node ran %d bins, want %d", node.bin(), bins)
	}
	v := reflect.ValueOf(node).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice, reflect.Map, reflect.Chan:
			if f.Len() >= bins {
				t.Errorf("Node.%s holds %d entries after %d bins", v.Type().Field(i).Name, f.Len(), bins)
			}
		}
	}
}

// TestClusterRejectsDuplicateShardNames: the coordinator keys
// membership on shard names, so two shards under one name (explicit, or
// an explicit name colliding with a default "linkN") would share one
// demand record and one grant. NewCluster refuses to build that.
func TestClusterRejectsDuplicateShardNames(t *testing.T) {
	for _, names := range [][]string{{"edge", "edge"}, {"link1", ""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster accepted shard names %q", names)
				}
			}()
			shards := testClusterShards(time.Second)[:2]
			shards[0].Name, shards[1].Name = names[0], names[1]
			NewCluster(ClusterConfig{TotalCapacity: 1e6, ShardPolicy: MMFSCPU()}, shards)
		}()
	}
}
