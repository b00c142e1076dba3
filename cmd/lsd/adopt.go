// adopt.go — the adoption half of worker failover: when the
// coordinator decides an orphaned shard should live here (its worker
// crashed, or an operator posted /cluster/migrate), it pushes the
// shard's checkpoint over this worker's coordinator link. The offer
// carries everything needed to take over: a spec to rebuild the System,
// a snapshot to restore its state, and the bin to reposition the
// traffic source at. Each adopted shard runs as its own Node with its
// own coordinator connection under the dead shard's name, so budget
// allocation sees the shard itself come back, not a bigger host.
package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/control"
	"repro/pkg/loadshed"
)

// adoptionState tracks the shards a worker runs on behalf of others —
// the gauge/counter pair behind lsd_adopted_shards and
// lsd_adoptions_total, plus the WaitGroup that keeps the worker process
// alive until its adopted shards finish.
type adoptionState struct {
	wg     sync.WaitGroup
	active atomic.Int64
	total  atomic.Int64
}

// Active is the number of adopted shards currently running.
func (a *adoptionState) Active() int64 { return a.active.Load() }

// Total is the number of adoption offers ever accepted.
func (a *adoptionState) Total() int64 { return a.total.Load() }

// Wait blocks until every running adopted shard has finished.
func (a *adoptionState) Wait() { a.wg.Wait() }

// adoptionLoop accepts adoption offers from the worker's coordinator
// link until ctx ends, running each adopted shard on its own goroutine.
func adoptionLoop(ctx context.Context, client *control.CoordClient, st *adoptionState, o workerOpts) {
	for {
		select {
		case <-ctx.Done():
			return
		case offer := <-client.Adoptions():
			st.wg.Add(1)
			st.total.Add(1)
			st.active.Add(1)
			go func(offer control.AdoptOffer) {
				defer st.wg.Done()
				defer st.active.Add(-1)
				if err := runAdoptedShard(ctx, offer, o); err != nil {
					fmt.Printf("adoption of %q failed: %v\n", offer.Shard, err)
				}
			}(offer)
		}
	}
}

// runAdoptedShard resumes one orphaned shard from its checkpoint:
// rebuild the System from the spec, restore the snapshot, reopen the
// shard's traffic source positioned at the checkpoint bin, and stream
// under the shard's cluster name until the source ends, the shard is
// drained onward, or the worker shuts down.
func runAdoptedShard(ctx context.Context, offer control.AdoptOffer, o workerOpts) error {
	cp, err := loadshed.DecodeShardCheckpoint(bytes.NewReader(offer.Checkpoint))
	if err != nil {
		return err
	}
	sys, err := shardSystem(cp.Spec, cp.Snap)
	if err != nil {
		return err
	}

	src, closeSrc, desc, err := openIngest(cp.Spec.Ingest, cp.Spec.Preset, cp.Spec.TraceSeed, cp.Spec.TraceDur, cp.Spec.Scale, cp.Bin)
	if err != nil {
		return fmt.Errorf("reopen ingest %q: %w", cp.Spec.Ingest, err)
	}
	defer closeSrc()

	client, err := o.dial(cp.Node, cp.Spec.MinShare)
	if client == nil {
		return err
	}
	defer client.Close()
	node := o.member(sys, client, cp.Spec, cp.Node, cp.Bin)

	fmt.Printf("adopted shard %q from bin %d (ingest: %s)\n", cp.Node, cp.Bin, desc)
	streamErr := runShard(ctx, node.StreamContext, src, closeSrc, loadshed.DiscardSink{})
	switch {
	case node.Drained():
		fmt.Printf("adopted shard %q drained onward\n", cp.Node)
	case streamErr != nil:
		fmt.Printf("adopted shard %q stopped on signal\n", cp.Node)
	default:
		fmt.Printf("adopted shard %q finished its trace\n", cp.Node)
	}
	return loadshed.SourceErr(src)
}
