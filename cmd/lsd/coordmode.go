// coordmode.go — the distributed deployment of lsd: -coordinator runs
// the budget coordinator as its own process, serving the TCP grant
// protocol to worker monitors; -worker runs one monitor as a cluster
// member that reports demand to a remote coordinator and applies the
// budget it is granted, degrading to local-only shedding whenever the
// coordinator is unreachable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/pkg/loadshed"
)

// coordOpts holds the coordinator's own flags. It also reads -serve and
// -capacity (its admin plane and the total machine budget) and the link
// flags -lease and -cluster-key-file, from the structs the worker binds
// them into; -shard-policy is also the in-process cluster's.
type coordOpts struct {
	listen     string // -coordinator: TCP address workers connect to
	policyName string
	policy     loadshed.Strategy // nil = "static", which the coordinator rejects
	heartbeat  time.Duration
	grace      time.Duration // partition-to-failover window (0 = 2x lease)
	stateDir   string        // checkpoint spill directory ("" = memory only)
}

// runCoordinator serves the budget coordinator until a signal arrives.
func runCoordinator(ctx context.Context, o *options) {
	c := o.coord
	if c.policy == nil {
		die(fmt.Errorf(`-coordinator needs a coordinating -shard-policy; "static" disables coordination (every worker would keep its static budget)`))
	}
	if o.capacity <= 0 {
		die(fmt.Errorf("-coordinator needs -capacity: the total machine budget in cycles/bin cannot be probed from traffic the coordinator never sees"))
	}

	key, err := clusterKey(o.keyFile)
	die(err)
	coord := control.NewCoordinator(c.policy, o.capacity)
	if c.stateDir != "" {
		// Reload any spilled checkpoints before serving: shards that
		// crashed with the previous coordinator come back as partitioned
		// members whose state is immediately offerable. A file that does
		// not reload costs only its own shard; a directory that cannot be
		// created or listed stops the coordinator.
		if err := coord.SetStateDir(c.stateDir, time.Now()); errors.Is(err, control.ErrCheckpointFile) {
			fmt.Printf("warning: %v\n", err)
		} else {
			die(err)
		}
		fmt.Printf("state dir %s: %d checkpoint(s) reloaded\n", c.stateDir, coord.CheckpointsStored())
	}
	ln, err := net.Listen("tcp", c.listen)
	die(err)
	srv := control.ServeCoordinator(ln, coord, control.CoordServerConfig{
		Heartbeat: c.heartbeat,
		Lease:     o.lease,
		Grace:     c.grace,
		Key:       key,
	})
	auth := "unauthenticated"
	if key != "" {
		auth = "PSK-authenticated"
	}
	fmt.Printf("coordinator on %s: policy %s, total capacity %.3g cycles/bin, heartbeat %v, %s\n",
		srv.Addr(), c.policy.Name(), o.capacity, c.heartbeat, auth)

	stopAdmin := startAdmin(o.admin, coordinatorMux(srv, coord, c), "healthz, metrics, cluster")

	<-ctx.Done()
	srv.Close()
	stopAdmin()

	fmt.Println("signal received: coordinator stopped")
	for _, n := range coord.Status() {
		state := "live"
		switch {
		case n.Done:
			state = "done"
		case n.Partitioned:
			state = "partitioned"
		}
		fmt.Printf("  node %-12s bin %-7d demand %.3g grant %.3g (%s)\n",
			n.Name, n.Bin, n.Demand, n.Grant, state)
	}
}

// coordinatorMux is the coordinator's admin plane: health, per-node
// budget/demand/partition gauges, the /cluster membership listing, and
// the /cluster/migrate verb that drains a shard onto another worker.
func coordinatorMux(srv *control.CoordServer, coord *control.Coordinator, o coordOpts) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		nodes := coord.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m := &loadshed.MetricsWriter{W: w}
		perNode := func(name, help string, v func(n *control.CoordNodeStatus) any) {
			m.GaugeVec(name, help, "node", len(nodes), func(i int) (string, any) { return nodes[i].Name, v(&nodes[i]) })
		}
		m.Gauge("lsd_up", "Whether the coordinator is serving.", 1)
		m.Gauge("lsd_cluster_total_capacity", "Total machine budget distributed per bin, cycles.", coord.Total())
		m.Gauge("lsd_cluster_nodes", "Nodes that ever joined the cluster.", len(nodes))
		perNode("lsd_node_budget", "Cycle budget most recently granted to the node.",
			func(n *control.CoordNodeStatus) any { return n.Grant })
		perNode("lsd_node_demand", "EWMA full-rate demand the node last reported, cycles/bin.",
			func(n *control.CoordNodeStatus) any { return n.Demand })
		perNode("lsd_node_partitioned", "Whether the node's lease expired without a report.",
			func(n *control.CoordNodeStatus) any { return b2i(n.Partitioned) })
		perNode("lsd_node_done", "Whether the node finished its trace.",
			func(n *control.CoordNodeStatus) any { return b2i(n.Done) })
		perNode("lsd_node_checkpoint_bin", "First unprocessed bin of the shard's retained checkpoint (-1 = none).",
			func(n *control.CoordNodeStatus) any { return n.CheckpointBin })
		m.Counter("lsd_cluster_checkpoints_total", "Shard checkpoints stored by the coordinator.", coord.CheckpointsStored())
		m.Counter("lsd_cluster_failover_offers_total", "Adoption offers issued for crashed or migrating shards.", coord.FailoverOffers())
		m.Counter("lsd_coord_auth_failures_total", "Connections rejected by pre-shared-key authentication.", srv.AuthFailures())
		m.Runtime()
	})

	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Policy        string                    `json:"policy"`
			TotalCapacity float64                   `json:"total_capacity"`
			Heartbeat     string                    `json:"heartbeat"`
			Nodes         []control.CoordNodeStatus `json:"nodes"`
		}{
			Policy:        o.policy.Name(),
			TotalCapacity: coord.Total(),
			Heartbeat:     o.heartbeat.String(),
			Nodes:         coord.Status(),
		})
	})

	// POST /cluster/migrate?from=NODE&to=NODE drains the source shard at
	// its next measurement-interval boundary and hands its final
	// checkpoint to the target worker, which resumes it bit-identically.
	// The handoff is asynchronous (drain, final checkpoint, directed
	// offer, adoption), so success is 202 Accepted; watch /cluster for
	// the shard moving.
	mux.HandleFunc("POST /cluster/migrate", func(w http.ResponseWriter, r *http.Request) {
		from, to := r.FormValue("from"), r.FormValue("to")
		if from == "" || to == "" {
			http.Error(w, "need from= and to= node names", http.StatusBadRequest)
			return
		}
		if err := coord.Migrate(from, to); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{
			"status": "accepted", "from": from, "to": to,
			"note": "source drains at its next interval boundary; target adopts the final checkpoint",
		})
	})

	return mux
}

// clusterKey reads the pre-shared cluster key from path ("" = no key).
// The key lives in a file, not on the command line, so neither ps nor
// the admin plane's /debug/pprof/cmdline shows it. Surrounding
// whitespace, the trailing newline included, is not part of the key; a
// file that holds nothing else is refused.
func clusterKey(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("-cluster-key-file: %w", err)
	}
	key := strings.TrimSpace(string(b))
	if key == "" {
		return "", fmt.Errorf("-cluster-key-file %s holds no key", path)
	}
	return key, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workerOpts holds the flags the worker mode reads on top of the serve
// mode's (ingest, capacity sizing, admin, engine).
type workerOpts struct {
	serveOpts
	coordAddr string // -worker
	name      string
	minShare  float64
	lease     time.Duration
	keyFile   string        // -cluster-key-file
	key       string        // the pre-shared cluster key read from it ("" = unauthenticated)
	joinWait  time.Duration // startup bound on reaching the coordinator (0 = forever)
	ckptEvery int           // checkpoint cadence in measurement intervals (0 = off)
}

// shardSpec describes this worker's shard in the transferable form that
// travels inside every checkpoint, so any adopter can rebuild the same
// System and reopen the same traffic source.
func (o workerOpts) shardSpec(capacity float64) loadshed.ShardSpec {
	qs := o.queries()
	specQs := make([]loadshed.QuerySpec, len(qs))
	for i, q := range qs {
		specQs[i] = loadshed.QuerySpec{Kind: q.Name(), Seed: o.seed}
	}
	strategy := ""
	if o.scheme == loadshed.Predictive {
		strategy = o.strategy.Name()
	}
	return loadshed.ShardSpec{
		Scheme:          o.schemeName,
		Strategy:        strategy,
		Seed:            o.seed + 2,
		Capacity:        capacity,
		Workers:         o.workers,
		ChangeDetection: o.detectOn,
		CustomShedding:  o.customOn,
		Queries:         specQs,
		MinShare:        o.minShare,
		Ingest:          o.ingest,
		Preset:          o.preset,
		TraceSeed:       o.seed,
		TraceDur:        o.dur,
		Scale:           o.scale,
	}
}

// shardSystem rebuilds a shard's System from its spec, with snap
// restored into it when the shard resumes a checkpoint — how the
// worker's own engine and every adopted one are built.
func shardSystem(spec loadshed.ShardSpec, snap *loadshed.SystemSnapshot) (*loadshed.System, error) {
	sys, err := spec.NewSystem()
	if err == nil && snap != nil {
		err = sys.Restore(snap)
	}
	return sys, err
}

// dial opens a coordinator link under a shard's name.
func (o workerOpts) dial(name string, minShare float64) (*control.CoordClient, error) {
	return control.DialCoordinator(o.coordAddr, name, control.CoordClientConfig{
		MinShare: minShare,
		Lease:    o.lease,
		Key:      o.key,
	})
}

// member wraps sys as the cluster member name, its bins counted from
// binOffset, reporting and checkpointing over client.
func (o workerOpts) member(sys *loadshed.System, client *control.CoordClient, spec loadshed.ShardSpec, name string, binOffset int64) *loadshed.Node {
	return loadshed.NewNode(sys, client, loadshed.NodeConfig{
		Name:            name,
		MinShare:        spec.MinShare,
		CheckpointEvery: o.ckptEvery,
		Spec:            spec,
		BinOffset:       binOffset,
	})
}

// runWorker runs one monitor as a cluster member: ingest feeds a local
// System wrapped in a loadshed.Node whose transport is a TCP client of
// the remote coordinator. Coordination is advisory — an unreachable
// coordinator degrades the worker to local-only shedding on its last
// granted (or initial) capacity, and a reconnect rejoins the cluster.
// The probed budget is therefore only the initial one: it carries the
// worker through coordinator outages, and the first grant replaces it.
// The engine is built from the same ShardSpec that travels in the
// shard's checkpoints, so what an adopter rebuilds is what ran here.
func runWorker(ctx context.Context, o workerOpts) {
	var err error
	o.key, err = clusterKey(o.keyFile)
	die(err)
	name := o.name
	if name == "" {
		name = fmt.Sprintf("worker%d", os.Getpid())
	}
	serveLoop(ctx, o.serveOpts, "initial capacity", func(capacity float64) (*loadshed.System, serveMode) {
		spec := o.shardSpec(capacity)
		sys, err := shardSystem(spec, nil)
		die(err)
		client := joinCoordinator(name, o)
		if o.ckptEvery > 0 && o.customOn {
			fmt.Println("warning: -checkpoint-every needs -custom=false (custom load shedding has unserializable state); checkpoints will fail until it is disabled")
		}
		node := o.member(sys, client, spec, name, 0)
		// The stream goroutine applies grants to the Governor, so
		// /metrics reads the budget the latest bin ran under instead.
		var budget atomic.Uint64
		budget.Store(math.Float64bits(capacity))
		budgetSink := loadshed.SinkFuncs{Bin: func(b *loadshed.BinStats) { budget.Store(math.Float64bits(b.Capacity)) }}

		// Adopted shards: the coordinator pushes an orphaned shard's
		// checkpoint over this worker's link; each adoption runs as its own
		// Node + System + coordinator connection alongside the local shard.
		adoptions := new(adoptionState)
		adoptCtx, stopAdopting := context.WithCancel(ctx)
		go adoptionLoop(adoptCtx, client, adoptions, o)

		return sys, serveMode{
			banner: "serving as cluster worker",
			stream: func(ctx context.Context, src loadshed.Source, sink loadshed.Sink) error {
				return node.StreamContext(ctx, src, loadshed.Tee(sink, budgetSink))
			},
			metrics: func(m *loadshed.MetricsWriter) {
				g, fresh := client.Grant() // the zero grant while degraded
				m.Gauge("lsd_coord_connected", "Whether the coordinator connection is up.", b2i(client.Connected()))
				m.Gauge("lsd_coord_degraded", "Whether the worker is shedding on local capacity only (no lease-fresh grant).", b2i(!fresh))
				m.Counter("lsd_coord_reconnects_total", "Times the coordinator link was re-established.", client.Reconnects())
				m.Gauge("lsd_coord_grant_capacity", "Cycle budget of the current lease-fresh grant (0 while degraded).", g.Capacity)
				m.Gauge("lsd_node_capacity", "Cycle budget per bin the engine currently runs under.", math.Float64frombits(budget.Load()))
				m.Counter("lsd_checkpoints_total", "Shard checkpoints shipped to the coordinator.", node.CheckpointsSent())
				m.Counter("lsd_checkpoint_errors_total", "Checkpoints that failed to snapshot or send.", node.CheckpointErrors())
				m.Gauge("lsd_adopted_shards", "Shards this worker is currently running on behalf of failed or migrated peers.", adoptions.Active())
				m.Counter("lsd_adoptions_total", "Adoption offers this worker has accepted.", adoptions.Total())
			},
			// The local shard is finished (or drained away by a migration),
			// but adopted shards keep running until they finish or a signal
			// lands. The worker's own link stays open meanwhile: it is how
			// new offers arrive and how the coordinator sees this worker as
			// live.
			after: func() {
				if node.Drained() {
					fmt.Println("shard drained: final checkpoint handed to the coordinator for migration")
				}
				adoptions.Wait()
				stopAdopting()
				client.Close()
			},
		}
	})
}

// joinCoordinator dials the worker's coordinator link, applying the
// -join-timeout startup bound.
func joinCoordinator(name string, o workerOpts) *control.CoordClient {
	client, err := o.dial(name, o.minShare)
	if client == nil {
		die(err)
	}
	switch {
	case err == nil:
	case o.joinWait <= 0:
		fmt.Printf("coordinator %s unreachable (%v); shedding locally until it appears\n", o.coordAddr, err)
		return client
	default:
		// Bounded join: a worker that cannot reach its coordinator at
		// startup is usually misconfigured (wrong address or wrong
		// -cluster-key-file), so fail fast instead of redialing forever.
		fmt.Printf("coordinator %s unreachable (%v); retrying for %v\n", o.coordAddr, err, o.joinWait)
		deadline := time.Now().Add(o.joinWait)
		for !client.Connected() {
			if time.Now().After(deadline) {
				client.Close()
				die(fmt.Errorf("coordinator %s still unreachable after -join-timeout %v", o.coordAddr, o.joinWait))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	fmt.Printf("joined coordinator %s as %q\n", o.coordAddr, name)
	return client
}
