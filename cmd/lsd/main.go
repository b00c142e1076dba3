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
// Each mode reads its own flags, and lsd -h lists them per mode. A
// flag set on the command line that the selected mode does not read is
// an error before anything runs, never silently dropped.
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
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/pkg/loadshed"
)

func main() {
	o := new(options)
	o.define(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	// Flags the mode does not read and name typos die here, before any
	// mode spends seconds measuring demand.
	m, err := o.selectMode(flag.CommandLine)
	die(err)

	// Every mode shuts down on SIGINT/SIGTERM by cancelling this context:
	// the engine finishes its current bin, flushes the open interval, and
	// the mode's final report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	m.run(ctx, o)
}

// options holds every flag lsd defines, each bound straight into the
// options struct of the mode that reads it. Modes that read a flag in
// common share its struct: a worker is a serving monitor, so
// workerOpts holds -serve's serveOpts, which hold the engineOpts every
// mode that runs an engine reads.
type options struct {
	workerOpts
	coord   coordOpts
	trace   string // replayed by run, cluster and stream
	shards  int
	stream  bool
	maxBins int
	report  time.Duration
	feed    string
}

// define declares lsd's 33 flags on fs, each bound into o.
func (o *options) define(fs *flag.FlagSet) {
	fs.StringVar(&o.preset, "preset", "cesca2", "dataset preset (ignored with -trace)")
	fs.StringVar(&o.trace, "trace", "", "replay this trace file instead of generating")
	fs.DurationVar(&o.dur, "dur", 30*time.Second, "generated trace duration")
	fs.Float64Var(&o.scale, "scale", 0.1, "generated trace rate scale")
	fs.Uint64Var(&o.seed, "seed", 1, "seed")
	fs.Float64Var(&o.overload, "overload", 2, "demand/capacity ratio to impose")
	fs.StringVar(&o.schemeName, "scheme", "predictive", "predictive | reactive | original | none")
	fs.StringVar(&o.strategyName, "strategy", "mmfs_pkt", "equal | eq_srates | mmfs_cpu | mmfs_pkt (predictive only)")
	fs.BoolVar(&o.full, "full", false, "run all ten queries instead of the standard seven")
	fs.BoolVar(&o.customOn, "custom", true, "enable custom load shedding (Chapter 6)")
	fs.BoolVar(&o.detectOn, "detect", false, "online drift detection at the detector's default thresholds; a change verdict truncates every MLR history to its newest rows (predictive scheme only)")
	fs.IntVar(&o.workers, "workers", 0, "query execution worker pool size (0 = auto: all cores single-link, inline per shard with -shards)")
	fs.IntVar(&o.shards, "shards", 1, "split the trace across N links and run a Cluster")
	fs.StringVar(&o.coord.policyName, "shard-policy", "mmfs_cpu", "cross-shard budget policy: static | equal | eq_srates | mmfs_cpu | mmfs_pkt")
	fs.BoolVar(&o.stream, "stream", false, "constant-memory streaming runtime: rolling report, no reference run")
	fs.IntVar(&o.maxBins, "max-bins", 0, "run a generated trace for N batches (-1 = forever, 0 = derive from -dur)")
	fs.DurationVar(&o.report, "report", 10*time.Second, "trace time between rolling reports")
	fs.StringVar(&o.admin, "serve", "", "run as a service: HTTP admin plane address (e.g. 127.0.0.1:9091)")
	fs.StringVar(&o.ingest, "ingest", "gen", "packet source: gen | udp://host:port | unix:///path | tail:file")
	fs.StringVar(&o.feed, "feed", "", "replay generated traffic into a serving lsd at udp://host:port or unix:///path")
	fs.Float64Var(&o.capacity, "capacity", 0, "cycle budget per bin (0 = size from a generated probe via -overload); with -coordinator: total machine budget (required)")
	fs.DurationVar(&o.window, "window", time.Minute, "rolling-metrics window")
	fs.StringVar(&o.coord.listen, "coordinator", "", "run the cluster budget coordinator on this TCP address")
	fs.StringVar(&o.coordAddr, "worker", "", "run as a cluster worker of the coordinator at this address")
	fs.StringVar(&o.name, "node", "", "cluster node name (default workerPID)")
	fs.Float64Var(&o.minShare, "min-share", 0, "guaranteed fraction of reported demand")
	fs.DurationVar(&o.coord.heartbeat, "heartbeat", 500*time.Millisecond, "budget reallocation period")
	fs.DurationVar(&o.lease, "lease", 0, "grant/report freshness lease (0 = 3x heartbeat)")
	fs.StringVar(&o.keyFile, "cluster-key-file", "", "file holding the pre-shared key that authenticates the coordinator link (must match on both sides; unset = unauthenticated)")
	fs.DurationVar(&o.joinWait, "join-timeout", 30*time.Second, "give up and exit nonzero if the coordinator is unreachable this long at startup (0 = retry forever)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "ship a durable shard checkpoint to the coordinator every K measurement intervals (0 = off; needs -custom=false)")
	fs.StringVar(&o.coord.stateDir, "state-dir", "", "spill the latest checkpoint per shard here and reload on restart")
	fs.DurationVar(&o.coord.grace, "grace", 0, "how long past its lease a partitioned shard waits before failover (0 = 2x lease)")
}

// The flags several modes read.
const (
	trafficFlags = "preset dur scale seed "
	engineFlags  = trafficFlags + "overload scheme strategy full custom workers "
	serveFlags   = engineFlags + "detect serve ingest capacity window "
)

// A mode is one way lsd runs: selected by the flag named in selector,
// it reads exactly the flags listed in flags.
type mode struct {
	name, selector string
	flags          string
	selected       func(o *options) bool
	run            func(ctx context.Context, o *options)
}

// modes in selection order: the first one selected runs.
var modes = []mode{
	{"feed", "-feed", trafficFlags + "feed",
		func(o *options) bool { return o.feed != "" }, runFeed},
	{"coordinator", "-coordinator", "coordinator serve shard-policy capacity heartbeat lease cluster-key-file grace state-dir",
		func(o *options) bool { return o.coord.listen != "" }, runCoordinator},
	{"worker", "-worker", serveFlags + "worker node min-share lease cluster-key-file join-timeout checkpoint-every",
		func(o *options) bool { return o.coordAddr != "" },
		func(ctx context.Context, o *options) { runWorker(ctx, o.workerOpts) }},
	{"serve", "-serve", serveFlags,
		func(o *options) bool { return o.admin != "" },
		func(ctx context.Context, o *options) { runServe(ctx, o.serveOpts) }},
	// -stream reads no -shards: splitting by flow hash materializes the
	// whole trace, which is what -stream exists to avoid.
	{"stream", "-stream", engineFlags + "detect trace stream max-bins report",
		func(o *options) bool { return o.stream }, runStream},
	{"cluster", "-shards N>1", engineFlags + "trace shards shard-policy",
		func(o *options) bool { return o.shards > 1 }, runCluster},
	{"run", "no mode flag", engineFlags + "detect trace shards",
		func(*options) bool { return true }, runMonitor},
}

// selectMode picks the mode the parsed flags select, rejects any flag
// set on the command line that it does not read, refuses a
// checkpointing worker with custom shedding on (every checkpoint of it
// would fail), and resolves the scheme, strategy and shard-policy
// names.
func (o *options) selectMode(fs *flag.FlagSet) (m mode, err error) {
	for _, m = range modes {
		if m.selected(o) {
			break
		}
	}
	reads := strings.Fields(m.flags)
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s is not read in %s mode (%s)", f.Name, m.name, m.selector)
		}
	})
	if err != nil {
		return m, err
	}
	if m.name == "worker" && o.ckptEvery > 0 && o.customOn {
		return m, fmt.Errorf("-checkpoint-every needs -custom=false: custom load shedding has state a checkpoint cannot carry")
	}
	if o.scheme, err = loadshed.ParseScheme(o.schemeName); err != nil {
		return m, err
	}
	if o.strategy, err = loadshed.StrategyByName(o.strategyName); err != nil {
		return m, err
	}
	o.coord.policy, err = loadshed.ShardPolicyByName(o.coord.policyName) // nil = static split
	return m, err
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: lsd [flags]\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, "\nflags each mode reads (any other flag is an error):\n")
	for _, m := range modes {
		fmt.Fprintf(out, "  %-11s (%s): -%s\n", m.name, m.selector, strings.Join(strings.Fields(m.flags), " -"))
	}
}

// runMonitor is the single-link run: capacity sized for -overload, a
// lossless reference, the chosen scheme, then per-second controller
// state and per-query accuracy.
func runMonitor(ctx context.Context, o *options) {
	src, err := o.openSource()
	die(err)

	fmt.Println("measuring full-rate demand ...")
	capacity := sizeCapacity(src, o.queries(), o.seed, o.overload, "capacity")
	cfg := engineConfig(o.engineOpts, capacity)

	fmt.Println("running reference (lossless) ...")
	ref := loadshed.Reference(src, o.queries(), o.seed+1)

	fmt.Printf("running %s ...\n", o.schemeName)
	res, runErr := loadshed.New(cfg, o.queries()).RunContext(ctx, src)

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
	errs := loadshed.MeanErrors(o.queries(), res, ref)
	fmt.Printf("\nper-query mean accuracy error vs lossless reference:\n")
	for _, q := range o.queries() {
		fmt.Printf("  %-16s %6.2f%%\n", q.Name(), errs[q.Name()]*100)
	}
	fmt.Printf("\nuncontrolled drops: %d of %d packets (%.3f%%)\n",
		res.TotalDrops(), res.TotalWirePkts(),
		100*float64(res.TotalDrops())/float64(res.TotalWirePkts()))
}

// runStream drives the constant-memory streaming runtime: the source is
// read incrementally (a trace file is never fully loaded; a generated
// source may be unbounded), and results flow into a rolling aggregator
// that prints a report every -report of trace time. No lossless
// reference run is possible online, so the accuracy section is replaced
// by the rolling unsampled-fraction proxy.
func runStream(ctx context.Context, o *options) {
	openStream := func(bins int) (loadshed.Source, func(), error) {
		if o.trace != "" {
			f, err := loadshed.OpenTraceFile(o.trace)
			if err != nil {
				return nil, nil, err
			}
			return f, func() { f.Close() }, nil
		}
		cfg, err := loadshed.PresetConfig(o.preset, o.seed, o.dur, o.scale)
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
	capacity := sizeCapacity(probe, o.queries(), o.seed, o.overload, "capacity")
	closeProbe()
	cfg := engineConfig(o.engineOpts, capacity)

	src, closeSrc, err := openStream(o.maxBins)
	die(err)
	defer closeSrc()

	binsPerReport := int(o.report / src.TimeBin())
	if binsPerReport < 1 {
		binsPerReport = 1
	}
	roll := loadshed.NewRollingStats(binsPerReport)

	fmt.Printf("streaming (%s scheme, report every %v) ...\n", o.schemeName, o.report)
	fmt.Printf("\n%-10s %-9s %-8s %-10s %-8s %-6s %-6s\n",
		"trace-time", "pkts/s", "drop%", "unsampled%", "rate", "occ", "cpu%")
	sys := loadshed.New(cfg, o.queries())
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

// runCluster splits the trace across -shards links by flow hash and
// runs one monitor per link under the global budget coordinator.
func runCluster(ctx context.Context, o *options) {
	src, err := o.openSource()
	die(err)
	n, seed, overload := o.shards, o.seed, o.overload

	fmt.Printf("splitting trace across %d links ...\n", n)
	links := loadshed.SplitFlows(src, n, seed)

	fmt.Println("measuring per-link full-rate demand ...")
	var total float64
	for i, l := range links {
		ovh, demand := loadshed.MeasureLoad(l, o.queries(), seed+1)
		cap := ovh + demand/overload
		total += cap
		fmt.Printf("  link%d: demand %.3g + overhead %.3g cycles/bin -> share %.3g\n", i, demand, ovh, cap)
	}
	fmt.Printf("total machine capacity %.3g cycles/bin (overload %.2fx per link), policy %s\n",
		total, overload, o.coord.policyName)

	base := engineConfig(o.engineOpts, 0)
	shardCfgs := make([]loadshed.Shard, n)
	for i, l := range links {
		shardCfgs[i] = loadshed.Shard{Name: fmt.Sprintf("link%d", i), Source: l, Queries: o.queries()}
	}

	fmt.Printf("running %d-shard cluster ...\n", n)
	res := loadshed.NewCluster(loadshed.ClusterConfig{
		Base:          base,
		TotalCapacity: total,
		ShardPolicy:   o.coord.policy,
	}, shardCfgs).Run()

	fmt.Printf("\n%-8s %-10s %-9s %-8s %-10s %-8s\n", "shard", "pkts", "drops", "rate", "cap-share", "err%")
	for i, sh := range res.Shards {
		var rate, cap float64
		for _, b := range sh.Result.Bins {
			rate += stats.Mean(b.Rates)
			cap += b.Capacity
		}
		nb := float64(len(sh.Result.Bins))
		ref := loadshed.Reference(links[i], o.queries(), seed+1)
		var errSum float64
		errs := loadshed.MeanErrors(o.queries(), sh.Result, ref)
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

// engineOpts holds the flags of the traffic a mode generates (-feed
// reads only these four: preset, dur, scale, seed) and of the engine
// every other mode but the coordinator builds. selectMode resolves the
// names before anything is measured.
type engineOpts struct {
	preset       string
	dur          time.Duration
	scale        float64
	seed         uint64
	overload     float64
	schemeName   string // -scheme as spelled, for banners and shard specs
	strategyName string
	full         bool
	customOn     bool
	detectOn     bool
	workers      int

	scheme   loadshed.Scheme
	strategy loadshed.Strategy
}

// queries builds a fresh query set: all ten with -full, else the
// standard seven.
func (o engineOpts) queries() []loadshed.Query {
	if o.full {
		return loadshed.AllQueries(loadshed.QueryConfig{Seed: o.seed})
	}
	return loadshed.StandardQueries(loadshed.QueryConfig{Seed: o.seed})
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

// openSource loads the -trace file, or makes the preset's generator.
func (o *options) openSource() (loadshed.Source, error) {
	if o.trace != "" {
		f, err := os.Open(o.trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return loadshed.ReadTrace(f)
	}
	cfg, err := loadshed.PresetConfig(o.preset, o.seed, o.dur, o.scale)
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
