// Command lsd ("load shedding daemon") runs the monitoring system over
// a generated or recorded trace and reports how the load shedding
// scheme behaved: per-second controller state while running, then
// per-query accuracy against a lossless reference.
//
//	lsd -preset cesca2 -dur 30s -overload 2 -scheme predictive -strategy mmfs_pkt
//	lsd -trace trace.bin -overload 2.5 -scheme reactive
//
// With -shards N the trace is split across N links by flow hash and a
// Cluster of per-link monitors runs under the global budget coordinator
// selected by -shard-policy ("static" disables coordination):
//
//	lsd -preset cesca2 -overload 2 -shards 4 -shard-policy mmfs_cpu
//
// With -stream the run uses the constant-memory streaming runtime: a
// trace file is read from disk batch by batch (never fully loaded), a
// generated source runs for -max-bins batches (-1 = forever), and
// results go to a rolling aggregator that prints a report every -report
// of trace time instead of accumulating every bin:
//
//	lsd -stream -preset cesca2 -max-bins -1 -overload 2    # run forever
//	lsd -stream -trace big.bin -report 30s
//
// With -serve ADDR the process becomes a long-running service: packets
// arrive over the ingest source named by -ingest (a live UDP or unixgram
// socket, a tail-followed trace file, or the unbounded generator), and
// ADDR serves the HTTP admin plane — /healthz, /readyz, /metrics
// (Prometheus), GET/POST/DELETE /queries for changing the query set
// without a restart, and the runtime's profiles under /debug/pprof/.
// -feed replays generated traffic into a serving instance's socket,
// paced by wall clock:
//
//	lsd -serve 127.0.0.1:9091 -ingest udp://127.0.0.1:9000
//	lsd -feed udp://127.0.0.1:9000 -preset cesca2 -dur 60s
//
// With -coordinator ADDR the process is the budget coordinator of a
// distributed cluster: workers connect to ADDR over TCP, report their
// demand, and receive budget grants computed by -shard-policy from the
// -capacity total. With -worker ADDR the process is one such worker — a
// serving monitor whose budget is granted remotely, and which degrades
// to local-only shedding whenever the coordinator is unreachable:
//
//	lsd -coordinator 127.0.0.1:9800 -shard-policy mmfs_cpu -capacity 2e6 -serve 127.0.0.1:9091
//	lsd -worker 127.0.0.1:9800 -node mon-a -ingest udp://127.0.0.1:9000 -serve 127.0.0.1:9092
//
// All modes shut down cleanly on SIGINT/SIGTERM: the engine stops at
// the next bin boundary, flushes the open measurement interval, and the
// final report still prints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/pkg/loadshed"
)

func main() {
	var (
		preset    = flag.String("preset", "cesca2", "dataset preset (ignored with -trace)")
		traceFile = flag.String("trace", "", "replay this trace file instead of generating")
		dur       = flag.Duration("dur", 30*time.Second, "generated trace duration")
		scale     = flag.Float64("scale", 0.1, "generated trace rate scale")
		seed      = flag.Uint64("seed", 1, "seed")
		overload  = flag.Float64("overload", 2, "demand/capacity ratio to impose")
		scheme    = flag.String("scheme", "predictive", "predictive | reactive | original | none")
		strategy  = flag.String("strategy", "mmfs_pkt", "equal | eq_srates | mmfs_cpu | mmfs_pkt (predictive only)")
		full      = flag.Bool("full", false, "run all ten queries instead of the standard seven")
		customOn  = flag.Bool("custom", true, "enable custom load shedding (Chapter 6)")
		detectOn  = flag.Bool("detect", false, "online drift detection at the detector's default thresholds; a change verdict truncates every MLR history to its newest rows (predictive scheme only)")
		workers   = flag.Int("workers", 0, "query execution worker pool size (0 = auto: all cores single-link, inline per shard with -shards)")
		shards    = flag.Int("shards", 1, "split the trace across N links and run a Cluster")
		shardPol  = flag.String("shard-policy", "mmfs_cpu", "cross-shard budget policy: static | equal | eq_srates | mmfs_cpu | mmfs_pkt")
		stream    = flag.Bool("stream", false, "constant-memory streaming runtime: rolling report, no reference run")
		maxBins   = flag.Int("max-bins", 0, "with -stream on a generated trace: run for N batches (-1 = forever, 0 = derive from -dur)")
		report    = flag.Duration("report", 10*time.Second, "with -stream: trace time between rolling reports")
		serve     = flag.String("serve", "", "run as a service: HTTP admin plane address (e.g. 127.0.0.1:9091)")
		ingest    = flag.String("ingest", "gen", "with -serve: packet source — gen | udp://host:port | unix:///path | tail:file")
		feed      = flag.String("feed", "", "replay generated traffic into a serving lsd at udp://host:port or unix:///path")
		capFlag   = flag.Float64("capacity", 0, "with -serve: cycle budget per bin (0 = size from a generated probe via -overload); with -coordinator: total machine budget (required)")
		window    = flag.Duration("window", time.Minute, "with -serve: rolling-metrics window")
		coordAddr = flag.String("coordinator", "", "run the cluster budget coordinator on this TCP address")
		workerOf  = flag.String("worker", "", "run as a cluster worker of the coordinator at this address")
		nodeName  = flag.String("node", "", "with -worker: cluster node name (default workerPID)")
		minShare  = flag.Float64("min-share", 0, "with -worker: guaranteed fraction of reported demand")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "with -coordinator: budget reallocation period")
		lease     = flag.Duration("lease", 0, "grant/report freshness lease (0 = 3x heartbeat)")
		key       = flag.String("cluster-key", "", "pre-shared key authenticating the coordinator link (must match on both sides; empty = unauthenticated)")
		joinWait  = flag.Duration("join-timeout", 30*time.Second, "with -worker: give up and exit nonzero if the coordinator is unreachable this long at startup (0 = retry forever)")
		ckptEvery = flag.Int("checkpoint-every", 0, "with -worker: ship a durable shard checkpoint to the coordinator every K measurement intervals (0 = off; needs -custom=false)")
		stateDir  = flag.String("state-dir", "", "with -coordinator: spill the latest checkpoint per shard here and reload on restart")
		grace     = flag.Duration("grace", 0, "with -coordinator: how long past its lease a partitioned shard waits before failover (0 = 2x lease)")
	)
	flag.Parse()

	// -shard-policy configures the coordinator (in-process with -shards,
	// standalone with -coordinator); anywhere else it would be silently
	// ignored, so reject it at parse time rather than mislead.
	shardPolSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shard-policy" {
			shardPolSet = true
		}
	})
	if shardPolSet && *shards <= 1 && *coordAddr == "" {
		die(fmt.Errorf("-shard-policy needs -shards N>1 or -coordinator: a single monitor has no budget to split (workers get their policy from the coordinator)"))
	}

	// Name typos die here, before any mode spends seconds measuring demand.
	eng := engineOpts{
		seed:       *seed,
		schemeName: *scheme,
		customOn:   *customOn,
		detectOn:   *detectOn,
		workers:    *workers,
	}
	var err error
	eng.scheme, err = loadshed.ParseScheme(*scheme)
	die(err)
	eng.strategy, err = loadshed.StrategyByName(*strategy)
	die(err)
	var shardPolicy loadshed.Strategy // nil = static split
	if *shards > 1 || *coordAddr != "" {
		shardPolicy, err = loadshed.ShardPolicyByName(*shardPol)
		die(err)
	}

	// Every mode shuts down on SIGINT/SIGTERM by cancelling this context:
	// the engine finishes its current bin, flushes the open interval, and
	// the mode's final report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mkQs := func() []loadshed.Query {
		if *full {
			return loadshed.AllQueries(loadshed.QueryConfig{Seed: *seed})
		}
		return loadshed.StandardQueries(loadshed.QueryConfig{Seed: *seed})
	}
	so := serveOpts{
		engineOpts: eng,
		admin:      *serve,
		ingest:     *ingest,
		preset:     *preset,
		dur:        *dur,
		scale:      *scale,
		overload:   *overload,
		capacity:   *capFlag,
		window:     *window,
	}

	if *feed != "" {
		runFeed(ctx, *feed, *preset, *seed, *dur, *scale)
		return
	}
	if *coordAddr != "" {
		runCoordinator(ctx, coordOpts{
			listen:    *coordAddr,
			admin:     *serve,
			policy:    shardPolicy,
			capacity:  *capFlag,
			heartbeat: *heartbeat,
			lease:     *lease,
			grace:     *grace,
			key:       *key,
			stateDir:  *stateDir,
		})
		return
	}
	if *workerOf != "" {
		runWorker(ctx, mkQs, workerOpts{
			coordAddr: *workerOf,
			name:      *nodeName,
			minShare:  *minShare,
			lease:     *lease,
			key:       *key,
			joinWait:  *joinWait,
			ckptEvery: *ckptEvery,
			serve:     so,
		})
		return
	}
	if *serve != "" {
		runServe(ctx, mkQs, so)
		return
	}

	if *stream {
		if *shards > 1 {
			die(fmt.Errorf("-stream does not support -shards: splitting by flow hash materializes the whole trace, which is what -stream exists to avoid (use the Cluster.Stream API with per-link sources instead)"))
		}
		runStream(ctx, mkQs, eng, *traceFile, *preset, *dur, *scale, *maxBins, *report, *overload)
		return
	}

	src, err := openSource(*traceFile, *preset, *seed, *dur, *scale)
	die(err)

	if *shards > 1 {
		runCluster(src, mkQs, eng, *shards, *shardPol, shardPolicy, *overload)
		return
	}

	fmt.Println("measuring full-rate demand ...")
	capacity := sizeCapacity(src, mkQs(), *seed, *overload, "capacity")
	cfg := engineConfig(eng, capacity)

	fmt.Println("running reference (lossless) ...")
	ref := loadshed.Reference(src, mkQs(), *seed+1)

	fmt.Printf("running %s ...\n", *scheme)
	res, runErr := loadshed.New(cfg, mkQs()).RunContext(ctx, src)

	fmt.Printf("\n%-6s %-9s %-9s %-8s %-6s %-6s\n", "sec", "pkts/s", "drops/s", "rate", "occ", "cpu%")
	for i := 0; i < len(res.Bins); i += 10 {
		var pkts, drops, rate, occ, cpu float64
		n := 0
		for j := i; j < i+10 && j < len(res.Bins); j++ {
			b := res.Bins[j]
			pkts += float64(b.WirePkts)
			drops += float64(b.DropPkts)
			rate += stats.Mean(b.Rates)
			occ += b.BufferBins
			cpu += (b.Used + b.Overhead + b.Shed) / capacity
			n++
		}
		fmt.Printf("%-6d %-9.0f %-9.0f %-8.3f %-6.2f %-6.1f\n",
			i/10, pkts, drops, rate/float64(n), occ/float64(n), 100*cpu/float64(n))
	}

	if runErr != nil {
		fmt.Printf("\nsignal received after %d bins: run stopped at a bin boundary; accuracy comparison skipped (it needs the complete run)\n", len(res.Bins))
		return
	}
	errs := loadshed.MeanErrors(mkQs(), res, ref)
	fmt.Printf("\nper-query mean accuracy error vs lossless reference:\n")
	for _, q := range mkQs() {
		fmt.Printf("  %-16s %6.2f%%\n", q.Name(), errs[q.Name()]*100)
	}
	fmt.Printf("\nuncontrolled drops: %d of %d packets (%.3f%%)\n",
		res.TotalDrops(), res.TotalWirePkts(),
		100*float64(res.TotalDrops())/float64(res.TotalWirePkts()))
}

// runStream drives the constant-memory streaming runtime: the source is
// read incrementally (a trace file is never fully loaded; a generated
// source may be unbounded), and results flow into a rolling aggregator
// that prints a report every reportEvery of trace time. No lossless
// reference run is possible online, so the accuracy section is replaced
// by the rolling unsampled-fraction proxy.
func runStream(ctx context.Context, mkQs func() []loadshed.Query, eng engineOpts, traceFile, preset string, dur time.Duration, scale float64, maxBins int, reportEvery time.Duration, overload float64) {
	seed, scheme := eng.seed, eng.schemeName
	openStream := func(bins int) (loadshed.Source, func(), error) {
		if traceFile != "" {
			f, err := loadshed.OpenTraceFile(traceFile)
			if err != nil {
				return nil, nil, err
			}
			return f, func() { f.Close() }, nil
		}
		cfg, err := loadshed.PresetConfig(preset, seed, dur, scale)
		if err != nil {
			return nil, nil, err
		}
		cfg.MaxBins = bins
		return loadshed.NewGenerator(cfg), func() {}, nil
	}

	// The live stream may be unbounded, so capacity is sized on a
	// bounded probe of the same traffic (-dur worth of it); the probe
	// itself streams, so even a huge trace file is never resident.
	fmt.Println("measuring full-rate demand (bounded probe) ...")
	probe, closeProbe, err := openStream(0)
	die(err)
	capacity := sizeCapacity(probe, mkQs(), seed, overload, "capacity")
	closeProbe()
	cfg := engineConfig(eng, capacity)

	src, closeSrc, err := openStream(maxBins)
	die(err)
	defer closeSrc()

	binsPerReport := int(reportEvery / src.TimeBin())
	if binsPerReport < 1 {
		binsPerReport = 1
	}
	roll := loadshed.NewRollingStats(binsPerReport)

	fmt.Printf("streaming (%s scheme, report every %v) ...\n", scheme, reportEvery)
	fmt.Printf("\n%-10s %-9s %-8s %-10s %-8s %-6s %-6s\n",
		"trace-time", "pkts/s", "drop%", "unsampled%", "rate", "occ", "cpu%")
	sys := loadshed.New(cfg, mkQs())
	bins := 0
	streamErr := sys.StreamContext(ctx, src, loadshed.Tee(roll, loadshed.SinkFuncs{
		Bin: func(b *loadshed.BinStats) {
			// Snapshot scans the whole window; only pay for it on a
			// reporting boundary, not every bin.
			if bins++; bins%binsPerReport != 0 {
				return
			}
			s := roll.Snapshot()
			fmt.Printf("%-10v %-9.0f %-8.3f %-10.3f %-8.3f %-6.2f %-6.1f\n",
				b.Start+src.TimeBin(), s.PktsPerBin/src.TimeBin().Seconds(),
				100*s.DropFrac, 100*s.UnsampledFrac,
				s.MeanGlobalRate, s.MeanDelay, 100*s.MeanUtil)
		},
	}))
	if streamErr != nil {
		fmt.Println("\nsignal received: stream stopped at a bin boundary")
	}
	// A truncated or corrupt trace file ends the stream silently from
	// NextBatch's point of view; surface it and exit nonzero.
	die(loadshed.SourceErr(src))

	s := roll.Snapshot()
	dropPct := 0.0
	if s.WirePkts > 0 {
		dropPct = 100 * float64(s.DropPkts) / float64(s.WirePkts)
	}
	fmt.Printf("\nstream ended after %d bins, %d intervals: %d of %d packets dropped uncontrolled (%.3f%%)\n",
		s.Bins, s.Intervals, s.DropPkts, s.WirePkts, dropPct)
	fmt.Printf("per-query mean sampling rate over the last %d bins:\n", s.WindowBins)
	for i, q := range s.Queries {
		fmt.Printf("  %-16s %6.3f\n", q, s.MeanRates[i])
	}
}

// runCluster splits the trace across n links by flow hash and runs one
// monitor per link under the global budget coordinator.
func runCluster(src loadshed.Source, mkQs func() []loadshed.Query, eng engineOpts, n int, policyName string, policy loadshed.Strategy, overload float64) {
	seed := eng.seed

	fmt.Printf("splitting trace across %d links ...\n", n)
	links := loadshed.SplitFlows(src, n, seed)

	fmt.Println("measuring per-link full-rate demand ...")
	var total float64
	for i, l := range links {
		ovh, demand := loadshed.MeasureLoad(l, mkQs(), seed+1)
		cap := ovh + demand/overload
		total += cap
		fmt.Printf("  link%d: demand %.3g + overhead %.3g cycles/bin -> share %.3g\n", i, demand, ovh, cap)
	}
	fmt.Printf("total machine capacity %.3g cycles/bin (overload %.2fx per link), policy %s\n",
		total, overload, policyName)

	eng.detectOn = false // -detect applies to single-link runs only
	base := engineConfig(eng, 0)
	shardCfgs := make([]loadshed.Shard, n)
	for i, l := range links {
		shardCfgs[i] = loadshed.Shard{Name: fmt.Sprintf("link%d", i), Source: l, Queries: mkQs()}
	}

	fmt.Printf("running %d-shard cluster ...\n", n)
	res := loadshed.NewCluster(loadshed.ClusterConfig{
		Base:          base,
		TotalCapacity: total,
		ShardPolicy:   policy,
	}, shardCfgs).Run()

	fmt.Printf("\n%-8s %-10s %-9s %-8s %-10s %-8s\n", "shard", "pkts", "drops", "rate", "cap-share", "err%")
	for i, sh := range res.Shards {
		var rate, cap float64
		for _, b := range sh.Result.Bins {
			rate += stats.Mean(b.Rates)
		}
		for _, c := range sh.Capacities {
			cap += c
		}
		nb := float64(len(sh.Result.Bins))
		ref := loadshed.Reference(links[i], mkQs(), seed+1)
		var errSum float64
		errs := loadshed.MeanErrors(mkQs(), sh.Result, ref)
		for _, e := range errs {
			errSum += e
		}
		fmt.Printf("%-8s %-10d %-9d %-8.3f %-10.2f %-8.2f\n",
			sh.Name, sh.Result.TotalWirePkts(), sh.Result.TotalDrops(),
			rate/nb, cap/nb/(total/float64(n)), 100*errSum/float64(len(errs)))
	}
	fmt.Printf("\naggregate: %d of %d packets dropped uncontrolled (%.3f%%)\n",
		res.TotalDrops(), res.TotalWirePkts(),
		100*float64(res.TotalDrops())/float64(res.TotalWirePkts()))
}

// sizeCapacity measures probe's full-rate load and returns the cycle
// budget per bin that puts the query demand at overload times what is
// left after overhead; label names the budget in the log line.
func sizeCapacity(probe loadshed.Source, qs []loadshed.Query, seed uint64, overload float64, label string) float64 {
	ovh, demand := loadshed.MeasureLoad(probe, qs, seed+1)
	// NextBatch cannot surface read errors, so a truncated or corrupt
	// file would otherwise yield a confident demand number measured
	// over whatever prefix happened to parse.
	die(loadshed.SourceErr(probe))
	capacity := ovh + demand/overload
	fmt.Printf("demand %.3g cycles/bin (+%.3g overhead), %s %.3g (overload %.2fx)\n",
		demand, ovh, label, capacity, overload)
	return capacity
}

// engineOpts carries the flag values every mode builds its engine from,
// names already resolved (main does that before anything is measured).
type engineOpts struct {
	seed       uint64
	schemeName string // -scheme as spelled, for banners and shard specs
	scheme     loadshed.Scheme
	strategy   loadshed.Strategy
	customOn   bool
	detectOn   bool
	workers    int
}

// engineConfig is the one place flags become a loadshed.Config: the
// engine seed is the flag seed + 2 (+1 seeds the demand probe and the
// reference run), and -strategy applies to the predictive scheme only.
func engineConfig(o engineOpts, capacity float64) loadshed.Config {
	cfg := loadshed.Config{
		Scheme:          o.scheme,
		Capacity:        capacity,
		Seed:            o.seed + 2,
		CustomShedding:  o.customOn,
		ChangeDetection: o.detectOn,
		Workers:         o.workers,
	}
	if o.scheme == loadshed.Predictive {
		cfg.Strategy = o.strategy
	}
	return cfg
}

func openSource(traceFile, preset string, seed uint64, dur time.Duration, scale float64) (loadshed.Source, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return loadshed.ReadTrace(f)
	}
	cfg, err := loadshed.PresetConfig(preset, seed, dur, scale)
	if err != nil {
		return nil, err
	}
	return loadshed.NewGenerator(cfg), nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsd:", err)
		os.Exit(1)
	}
}
