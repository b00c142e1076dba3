package loadshed

// node.go — the engine's end of the control plane. A Node wraps one
// System as a cluster member: it steps the engine, folds each bin's
// observed demand into an EWMA, reports through its NodeTransport,
// applies granted capacity at bin boundaries, and at interval
// boundaries ships checkpoints and answers drains. The coordinator it
// reports to, and the transports between the two, are internal/control.

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/trace"
)

// demandAlpha is the EWMA weight of the per-node demand estimate the
// coordinator allocates from: high enough to chase a flash surge within
// a few bins, low enough that one noisy bin does not slosh the whole
// budget around.
const demandAlpha = 0.5

// Node wraps one System as a cluster member. Inside a Cluster the
// cluster loop drives it (step at the barrier, report/apply at the
// coordination point); as a standalone TCP worker its own
// StreamContext drives the same methods against a remote coordinator.
type Node struct {
	name string
	sys  *System
	src  trace.Source
	tr   NodeTransport

	run      *runner
	demand   float64 // EWMA of observed full-rate demand, cycles/bin
	seeded   bool
	done     bool
	doneSent bool

	// Checkpoint/drain state (see the boundary method); it belongs to
	// the run goroutine except the atomic counters, which metrics read
	// concurrently.
	ckptEvery int
	spec      ShardSpec
	binOffset int64
	drained   bool
	ckptsSent atomic.Int64
	ckptErrs  atomic.Int64
}

// NodeConfig parameterizes a standalone cluster member.
type NodeConfig struct {
	// Name identifies the node to the coordinator; it must be unique
	// across the cluster (the coordinator keys membership on it).
	Name string

	// CheckpointEvery ships a ShardCheckpoint to the coordinator every
	// K measurement intervals (through the transport). 0 disables
	// checkpointing entirely: the boundary hook then never snapshots and
	// the node's bins and transport traffic are identical to a build
	// without the failover layer.
	CheckpointEvery int
	// Spec describes how to rebuild this shard elsewhere; it travels
	// inside every checkpoint. Required (non-empty Queries) when
	// CheckpointEvery > 0 or drains are expected, ignored otherwise.
	Spec ShardSpec
	// BinOffset is the shard's absolute bin at which this run starts —
	// the checkpoint bin a resumed shard was restored from. The runner
	// counts bins from zero each run, so reports and checkpoints add
	// this offset to keep the shard's bin coordinates absolute across
	// adoptions; a second migration then repositions the source
	// correctly instead of at a run-relative bin.
	BinOffset int64
}

// NewNode wraps sys as a cluster member reporting through tr. The
// transport may be nil, in which case the node runs exactly like a
// standalone System (no reports, no grants) — the shape of a worker
// that lost its coordinator before ever reaching it.
func NewNode(sys *System, tr NodeTransport, cfg NodeConfig) *Node {
	return &Node{
		name: cfg.Name, sys: sys, tr: tr,
		ckptEvery: cfg.CheckpointEvery, spec: cfg.Spec,
		binOffset: cfg.BinOffset,
	}
}

// step advances the node one bin. The capacity the bin ran under is
// on its record (BinStats.Capacity).
func (n *Node) step() {
	if !n.done && !n.run.step() {
		n.done = true
	}
}

// observe folds the node's last bin into its demand EWMA. The
// observation is the full-rate cost of the bin: unsheddable platform
// and shedding overhead plus the predictor's full-rate estimate. Bins
// without a prediction (the reactive and original schemes) fall back
// to the measured query cycles rescaled by the applied global rate;
// that rescaling is only meaningful there, where a single rate exists —
// under a per-query strategy the minimum rate would grossly inflate
// the estimate of queries that ran near full rate.
func (n *Node) observe() {
	if n.run.bin == 0 {
		return
	}
	b := &n.run.lastBin
	queryCost := b.Predicted
	if queryCost <= 0 {
		rate := b.GlobalRate
		if rate <= 0 {
			rate = 1 // a fully-withheld bin carries no rescaling signal
		}
		queryCost = b.Used / math.Max(rate, 0.01)
	}
	obs := b.Overhead + b.Shed + queryCost
	if !n.seeded {
		n.demand = obs
		n.seeded = true
		return
	}
	n.demand = demandAlpha*obs + (1-demandAlpha)*n.demand
}

// report sends the node's per-bin demand report (or, once, a final
// done report after its trace ends, so the coordinator stops counting
// it and its budget redistributes).
func (n *Node) report() {
	if n.tr == nil {
		return
	}
	if n.done {
		if n.drained {
			// A drained shard is not done — it resumes elsewhere. The
			// final checkpoint announced the handoff; a done report here
			// would strip the shard from the membership for good.
			return
		}
		if !n.doneSent {
			n.doneSent = true
			n.tr.Report(DemandReport{Node: n.name, Bin: n.binOffset + int64(n.bin()), Done: true})
		}
		return
	}
	n.observe()
	n.tr.Report(DemandReport{Node: n.name, Bin: n.binOffset + int64(n.run.bin), Demand: n.demand})
}

// applyGrant installs the coordinator's latest capacity decision, if a
// fresh one exists. No fresh grant — coordinator partitioned away,
// static split, or the node already done — leaves the current local
// capacity standing: the node degrades to an isolated local shedder
// rather than stalling, and picks fresh grants back up when they
// resume.
func (n *Node) applyGrant() {
	if n.done || n.tr == nil {
		return
	}
	g, ok := n.tr.Grant()
	if !ok {
		return
	}
	n.sys.setCapacity(g.Capacity)
}

// Drained reports whether the node stopped for a drain (as opposed to
// exhausting its trace). Valid after StreamContext returns.
func (n *Node) Drained() bool { return n.drained }

// CheckpointsSent returns how many checkpoints this node has shipped.
func (n *Node) CheckpointsSent() int64 { return n.ckptsSent.Load() }

// CheckpointErrors returns how many checkpoint attempts failed (send
// error or unsnapshottable state). Checkpointing is advisory, so these
// never stop the run — they only surface in metrics.
func (n *Node) CheckpointErrors() int64 { return n.ckptErrs.Load() }

// boundary is the node's runner hook, called at every measurement-
// interval boundary — the quiesce point where System.Snapshot is valid.
// It ships a periodic checkpoint every CheckpointEvery intervals, and
// answers the coordinator's relayed drain request with a final
// checkpoint followed by stopping the run. Without a transport, or with
// CheckpointEvery zero and no drain pending, it does nothing, so the run
// is untouched by the failover layer.
func (n *Node) boundary(bin, interval int) bool {
	if n.tr == nil {
		return true
	}
	drain := n.tr.DrainRequested()
	periodic := n.ckptEvery > 0 && interval%n.ckptEvery == 0
	if !drain && !periodic {
		return true
	}
	n.sys.regMu.Lock()
	pending := len(n.sys.regOps)
	n.sys.regMu.Unlock()
	if pending > 0 {
		// Registry ops join at this boundary, after the hook; a snapshot
		// now would lose them. Defer to the next boundary, by which time
		// they have applied.
		return true
	}
	snap, err := n.sys.Snapshot()
	if err != nil {
		n.ckptErrs.Add(1)
		return true // unsnapshottable (custom shedding): keep running
	}
	// Encoded once, here: the transport and the coordinator carry the
	// blob without reading it.
	cp := &ShardCheckpoint{Node: n.name, Bin: n.binOffset + int64(bin), Final: drain, Spec: n.spec, Snap: snap}
	blob, err := cp.EncodeBytes()
	if err == nil {
		err = n.tr.Checkpoint(blob, cp.Bin, cp.Final)
	}
	if err != nil {
		// Advisory either way: a failed periodic checkpoint just waits
		// for the next one, and a drain whose handoff failed keeps
		// serving rather than stopping with the state nowhere.
		n.ckptErrs.Add(1)
		return true
	}
	n.ckptsSent.Add(1)
	if drain {
		n.drained = true
		return false
	}
	return true
}

// begin starts a run of src into sink that stops once done closes, and
// clears what the previous run left on the node. Standalone and inside
// a Cluster a node starts the same way.
func (n *Node) begin(src trace.Source, sink Sink, done <-chan struct{}) {
	n.src = src
	n.run = n.sys.newRunner(src, sink)
	n.run.done = done
	n.done, n.doneSent, n.drained = false, false, false
}

// bin returns the node's current bin index (0 before any step).
func (n *Node) bin() int {
	if n.run == nil {
		return 0
	}
	return n.run.bin
}

// StreamContext runs the node standalone — the TCP worker's main loop:
// step a bin, report demand, apply the freshest grant, repeat until the
// source ends or ctx fires. Records stream to sink exactly as in
// System.StreamContext; coordination failures never stop the run (see
// applyGrant).
func (n *Node) StreamContext(ctx context.Context, src trace.Source, sink Sink) error {
	n.begin(src, sink, ctx.Done())
	n.run.boundary = n.boundary
	for {
		n.step()
		if n.done {
			n.report() // the final done notice
			break
		}
		n.report()
		n.applyGrant()
	}
	n.run.finish()
	return ctx.Err()
}
