package loadshed

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
)

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
	pkts := make([]pkt.Packet, len(b.Pkts))
	for i, p := range b.Pkts {
		p.Payload = bytes.Clone(p.Payload)
		pkts[i] = p
	}
	b.Pkts = pkts
	return b, true
}

func (s *scribbleSource) Recycle(b pkt.Batch) {
	s.recycled++
	for i := range b.Pkts {
		clear(b.Pkts[i].Payload)
	}
	clear(b.Pkts)
}

// TestEngineNeverReadsARecycledBatch runs the sequential loop, the bin
// pipeline and a Cluster over scribbling sources and requires records
// bit-identical to runs over the untouched recording, with every
// delivered batch handed back exactly once.
func TestEngineNeverReadsARecycledBatch(t *testing.T) {
	batches := trace.Record(testSource(12, 4*time.Second))
	plain := func() trace.Source { return trace.NewMemorySource(batches, trace.DefaultTimeBin) }
	scribble := func() *scribbleSource {
		return &scribbleSource{MemorySource: *trace.NewMemorySource(batches, trace.DefaultTimeBin)}
	}

	for _, workers := range []int{1, 4} {
		want := New(pipeCfg(workers), AllQueries(QueryConfig{Seed: 42})).Run(plain())
		src := scribble()
		got := New(pipeCfg(workers), AllQueries(QueryConfig{Seed: 42})).Run(src)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: a run over a scribbling Recycler diverged", workers)
		}
		if src.recycled != len(batches) {
			t.Fatalf("workers=%d: %d of %d batches recycled", workers, src.recycled, len(batches))
		}
	}

	cluster := func(mk func(i int) trace.Source) *ClusterResult {
		shards := make([]Shard, 2)
		for i := range shards {
			shards[i] = Shard{Source: mk(i), Queries: stdQueries()}
		}
		return NewCluster(ClusterConfig{
			Base:          Config{Scheme: Predictive, Seed: 8, Strategy: MMFSPkt(), Workers: 2},
			TotalCapacity: 6e6,
			ShardPolicy:   MMFSCPU(),
			Runners:       2,
		}, shards).Run()
	}
	srcs := []*scribbleSource{scribble(), scribble()}
	want := cluster(func(int) trace.Source { return plain() })
	got := cluster(func(i int) trace.Source { return srcs[i] })
	if !reflect.DeepEqual(want, got) {
		t.Fatal("a Cluster over scribbling Recyclers diverged")
	}
	for i, s := range srcs {
		if s.recycled != len(batches) {
			t.Fatalf("shard %d: %d of %d batches recycled", i, s.recycled, len(batches))
		}
	}
}
