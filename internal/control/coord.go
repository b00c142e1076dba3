// Package control is the cluster's control plane: the budget
// coordinator that splits a machine's cycle budget across monitors, its
// failover planning and checkpoint retention, and the transports that
// carry its protocol — an in-process loopback and a TCP wire. It sees
// the engine only through what crosses the NodeTransport boundary:
// demand reports, budget grants and checkpoints, which it holds as
// opaque blobs it never decodes. The engine (pkg/loadshed) imports it;
// it imports nothing of the engine.
package control

// coord.go — the budget coordinator. A Coordinator owns the cross-shard
// allocation state machine: it collects per-node DemandReports, runs
// the Chapter 5 allocators (internal/sched) over the live nodes, and
// computes per-node BudgetGrants. The engine's Node (pkg/loadshed) is
// the other end: it steps a System, folds each bin's observed demand
// into an EWMA, reports through its NodeTransport, and applies granted
// capacity at bin boundaries.
//
// One coordinator serves two deployments with the same arithmetic:
//
//   - loopback (transport.go): the in-process Cluster, where reports,
//     allocation and grants happen synchronously at the lockstep
//     barrier between bins. AllocateRound treats exactly the nodes
//     that reported since the previous round as live, which reproduces
//     the pre-split Cluster bit for bit (nodes are visited in join ==
//     shard-index order, so every floating-point sum runs in the same
//     order as before).
//   - wire (the TCP drivers in transport.go, and the simulator in
//     sim_test.go): coordinator and workers as separate processes,
//     driving the coordinator end's steps at the bottom of this file.
//     Liveness is lease-based — tick marks nodes silent for longer than
//     the lease as partitioned and allocates over the rest; a
//     partitioned node keeps shedding on its last local capacity
//     (graceful degradation) and rejoins the allocation the moment a
//     fresh report arrives.

import (
	"math"
	"sync"
	"time"

	"repro/internal/sched"
)

// grantFloorFrac is the fraction of an equal share every live node is
// guaranteed per round (see sched.GrantsWithFloor).
const grantFloorFrac = 0.01

// coordNode is the coordinator's record of one cluster member.
type coordNode struct {
	name        string
	minShare    float64
	demand      float64 // latest reported EWMA demand, cycles/bin
	bin         int64   // latest reported bin index
	done        bool    // node finished its trace
	partitioned bool    // lease expired without a report (wire mode)
	reported    bool    // report received since the last AllocateRound
	ever        bool    // at least one demand report received
	lastReport  time.Time
	grant       float64
	grantRound  uint64

	// Failover state (failover.go).
	partitionedAt time.Time // when the partitioned flag last rose
	ckptBin       int64     // latest checkpoint's resume bin
	ckptFinal     bool      // latest checkpoint ended a drain
	ckptBlob      []byte    // latest checkpoint blob, opaque; nil = none
	offeredTo     string    // live node the shard is currently offered to
	offeredAt     time.Time
	offerTaken    bool   // the adopter's transport has collected the offer
	offerAttempts int    // rotates the adopter choice across re-offers
	migrateTo     string // planned-migration target; directs the offer
	drainReq      bool   // coordinator wants this shard to drain
}

// live is the one liveness predicate of lease-based membership: the
// node has spoken, has not finished and has not outlived its lease.
// tick allocates over the live nodes, failover offers orphaned shards
// to them, and Migrate accepts only a live target.
func (n *coordNode) live() bool { return n.ever && !n.done && !n.partitioned }

// CoordNodeStatus is one node's row in Coordinator.Status, the record
// behind cmd/lsd's /cluster endpoint and per-node metrics.
type CoordNodeStatus struct {
	Name        string    `json:"name"`
	MinShare    float64   `json:"min_share,omitempty"`
	Demand      float64   `json:"demand"`
	Grant       float64   `json:"grant"`
	Bin         int64     `json:"bin"`
	Done        bool      `json:"done"`
	Partitioned bool      `json:"partitioned"`
	LastReport  time.Time `json:"last_report"`

	// Failover fields: the latest retained checkpoint's resume bin (-1
	// when no checkpoint is held), whether it was a drain checkpoint,
	// and any in-flight adoption offer or migration target.
	CheckpointBin   int64  `json:"checkpoint_bin"`
	CheckpointFinal bool   `json:"checkpoint_final,omitempty"`
	OfferedTo       string `json:"offered_to,omitempty"`
	MigrateTo       string `json:"migrate_to,omitempty"`
}

// Coordinator is the cross-shard budget allocator, detached from any
// particular transport. All methods are safe for concurrent use: the
// TCP server calls Report from per-connection readers while the
// heartbeat loop allocates and the admin plane reads Status.
type Coordinator struct {
	mu     sync.Mutex
	policy sched.Strategy
	total  float64
	nodes  []*coordNode // join order; allocation iterates this order
	byName map[string]*coordNode
	round  uint64

	// Per-round scratch, reused so a per-bin loopback round allocates
	// nothing in steady state.
	liveBuf   []*coordNode
	demandBuf []sched.Demand
	grantBuf  []float64
	ws        sched.Workspace

	// Failover bookkeeping. stateDir, when set, receives a write-through
	// copy of every retained checkpoint (one file per shard). The
	// counters back the lsd_cluster_* metrics. None of this is touched
	// by allocateLocked, which keeps steady-state rounds at 0 allocs.
	stateDir     string
	ckptsStored  int64
	offersIssued int64
}

// NewCoordinator returns a coordinator distributing total cycles per
// bin across its nodes with the given policy. The policy must be
// non-nil and total finite — a static split needs no coordinator.
func NewCoordinator(policy sched.Strategy, total float64) *Coordinator {
	if policy == nil {
		panic("control: NewCoordinator with nil policy (static split needs no coordinator)")
	}
	if math.IsInf(total, 1) || total <= 0 {
		panic("control: NewCoordinator needs a finite positive total capacity")
	}
	return &Coordinator{policy: policy, total: total, byName: make(map[string]*coordNode)}
}

// Total returns the machine budget the coordinator distributes.
func (c *Coordinator) Total() float64 { return c.total }

// join registers (or re-registers) a node by name — membership is
// name-keyed on every transport: a worker that reconnects after a
// partition or a restart lands on its existing record, clearing the
// partitioned and done flags so the next report re-enters it into the
// allocation.
func (c *Coordinator) join(name string, minShare float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.recordLocked(name)
	n.minShare = minShare
	n.partitioned = false
	n.done = false
	n.reported = false
	// A hello settles any in-flight adoption: either the adopter dialed
	// in under the shard's name (offer consummated) or the original came
	// back (offer moot). Either way the shard is live again.
	n.settleOffer()
}

// recordLocked returns the membership record for name, appending a
// fresh one (join order = allocation order) on first sight. Caller
// holds c.mu.
func (c *Coordinator) recordLocked(name string) *coordNode {
	n := c.byName[name]
	if n == nil {
		n = &coordNode{name: name}
		c.nodes = append(c.nodes, n)
		c.byName[name] = n
	}
	return n
}

// settleOffer clears the record's adoption and migration state.
func (n *coordNode) settleOffer() {
	n.offeredTo = ""
	n.offerTaken = false
	n.offerAttempts = 0
	n.migrateTo = ""
}

// report folds a node's demand report, received at now, in by name.
// Reports from unknown nodes are dropped — the hello/Join handshake
// precedes them on every conforming transport.
func (c *Coordinator) report(r DemandReport, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.byName[r.Node]
	if n == nil {
		return
	}
	n.bin = r.Bin
	n.done = r.Done
	n.lastReport = now
	if r.Done {
		n.reported = false
		return
	}
	n.demand = r.Demand
	n.reported = true
	n.ever = true
	// Any report proves liveness: a partitioned node that reaches the
	// coordinator again rejoins the next allocation.
	n.partitioned = false
	// A live report while an offer is outstanding settles the adoption
	// the same way Join does (reports during a pre-offer drain leave
	// migrateTo standing — the directed offer still has to happen).
	if n.offeredTo != "" {
		n.settleOffer()
	}
}

// AllocateRound runs one lockstep coordination round: the nodes that
// reported since the previous round are live, everyone else (done,
// never-joined-in) keeps its stale grant, which Grant() then refuses
// to hand out. This is the loopback Cluster's per-bin path, and its
// arithmetic — demand order, allocator, floor, surplus — is the
// pre-split Cluster.coordinate verbatim.
func (c *Coordinator) AllocateRound() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.allocateLocked(func(n *coordNode) bool { return n.reported && !n.done })
}

// allocateLocked computes grants for the nodes live deems in, in join
// order. Caller holds c.mu.
func (c *Coordinator) allocateLocked(live func(*coordNode) bool) {
	act := c.liveBuf[:0]
	for _, n := range c.nodes {
		if live(n) {
			act = append(act, n)
		}
		n.reported = false
	}
	c.liveBuf = act
	c.round++ // an empty round too: no earlier grant stays current
	if len(act) == 0 {
		return
	}
	if cap(c.demandBuf) < len(act) {
		c.demandBuf = make([]sched.Demand, len(act))
	}
	demands := c.demandBuf[:len(act)]
	for i, n := range act {
		demands[i] = sched.Demand{Name: n.name, Cycles: n.demand, MinRate: n.minShare}
	}
	allocs := sched.AllocateInto(c.policy, demands, c.total, &c.ws)
	c.grantBuf = sched.GrantsWithFloor(c.grantBuf, allocs, c.total, grantFloorFrac)
	for i, n := range act {
		n.grant = c.grantBuf[i]
		n.grantRound = c.round
	}
}

// grantFor returns the named node's grant if it was part of the most
// recent allocation round; ok=false otherwise (unknown, done,
// partitioned, or no round yet), in which case the node keeps its
// current local capacity.
func (c *Coordinator) grantFor(name string) (BudgetGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.byName[name]
	if n == nil || n.grantRound == 0 || n.grantRound != c.round {
		return BudgetGrant{}, false
	}
	return BudgetGrant{Node: n.name, Round: n.grantRound, Capacity: n.grant}, true
}

// Status snapshots every node's membership record, in join order.
func (c *Coordinator) Status() []CoordNodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CoordNodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = CoordNodeStatus{
			Name:        n.name,
			MinShare:    n.minShare,
			Demand:      n.demand,
			Grant:       n.grant,
			Bin:         n.bin,
			Done:        n.done,
			Partitioned: n.partitioned,
			LastReport:  n.lastReport,

			CheckpointBin:   -1,
			CheckpointFinal: n.ckptFinal,
			OfferedTo:       n.offeredTo,
			MigrateTo:       n.migrateTo,
		}
		if n.ckptBlob != nil {
			out[i].CheckpointBin = n.ckptBin
		}
	}
	return out
}

// --- the coordinator end of the wire: clock-free steps ---
//
// A driver feeds a connection's first frame to admit, every later one
// to serve, and on each heartbeat calls tick, then pump for every name
// it holds a connection for. Each step takes the time from its caller
// and sends through the function it is given.

// conns binds each worker name to the one connection that speaks for
// it. The last hello wins: bind returns the connection it supersedes,
// for the driver to close. Two live instances of one shard — an adopter
// and the partitioned original it replaced, once healed — therefore
// take the name from each other at every redial until one stops
// (DESIGN.md section 4, "Ownership").
type conns[L comparable] map[string]L

func (m conns[L]) bind(name string, l L) (old L) {
	old = m[name]
	m[name] = l
	return old
}

func (m conns[L]) unbind(name string, l L) {
	if m[name] == l {
		delete(m, name)
	}
}

// admit is the hello step: it decodes a connection's first message as a
// hello — the authenticated form, checked against the nonce the
// connection was challenged with, when key is set — and joins the
// worker it names. mismatch reports a key mismatch between the two
// sides (a hello of the other form, or a bad MAC), which the server
// counts.
func (c *Coordinator) admit(p []byte, key string, nonce []byte) (name string, ok, mismatch bool) {
	var minShare float64
	switch {
	case key == "" && p[0] == coordMsgHello:
		name, minShare, ok = decodeHello(p)
	case key != "" && p[0] == coordMsgHelloAuth:
		name, minShare, ok = decodeHelloAuth(p, key, nonce)
		mismatch = !ok
	case p[0] == coordMsgHello || p[0] == coordMsgHelloAuth:
		mismatch = true
	}
	if ok {
		c.join(name, minShare)
	}
	return name, ok, mismatch
}

// serve is the per-frame step for the connection bound to name:
// non-empty payload p, and the blob behind it, arrived at now. A report
// folds in stamped with now; a checkpoint header and its blob are
// retained. Other messages are ignored.
func (c *Coordinator) serve(name string, p, blob []byte, now time.Time) {
	switch p[0] {
	case coordMsgReport:
		if r, ok := decodeReport(p); ok {
			r.Node = name
			c.report(r, now)
		}
	case coordMsgCheckpoint:
		if bin, final, _, ok := decodeCheckpointHdr(p); ok {
			c.storeCheckpoint(name, bin, final, blob)
		}
	}
}

// tick is the heartbeat step at now, on the clock the reports were
// stamped with: nodes whose last report is older than the lease are
// marked partitioned and excluded (their budget redistributes to the
// survivors); nodes that have ever reported and are neither done nor
// partitioned are allocated to, whether or not a report arrived this
// exact heartbeat; then orphaned shards are marked for adoption
// (planFailoverLocked), an offer expiring after 2×lease.
func (c *Coordinator) tick(now time.Time, lease, grace time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.live() && now.Sub(n.lastReport) > lease {
			n.partitioned = true
			n.partitionedAt = now // starts the failover grace window
		}
	}
	c.allocateLocked((*coordNode).live)
	c.planFailoverLocked(now, grace, 2*lease)
}
