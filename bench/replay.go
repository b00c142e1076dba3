package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// engineSeed seeds the system under test. It is a constant: the
// program receives the generated inputs, never the benchmark's seed or
// the workload's name.
const engineSeed = 7

func stdQueries() []loadshed.Query {
	return loadshed.StandardQueries(loadshed.QueryConfig{Seed: engineSeed})
}

// link is one monitored link's recorded traffic and measured load.
type link struct {
	name             string
	batches          []pkt.Batch
	bin              time.Duration
	pkts             int
	nominal          float64 // packets per bin at the preset's configured rate
	overhead, demand float64 // mean cycles per bin, from MeasureLoad
}

func (l *link) source() *trace.MemorySource { return trace.NewMemorySource(l.batches, l.bin) }

// recordLink generates a link's traffic once into memory and measures
// its full-rate load; it also returns how long generation alone took.
func recordLink(name string, cfg trace.Config) (link, time.Duration) {
	t := time.Now()
	gen := trace.NewGenerator(cfg)
	l := link{name: name, batches: trace.Record(gen), bin: gen.TimeBin()}
	genTime := time.Since(t)
	l.nominal = cfg.PacketsPerSec * l.bin.Seconds()
	for i := range l.batches {
		l.pkts += len(l.batches[i].Pkts)
	}
	l.overhead, l.demand = loadshed.MeasureLoad(l.source(), stdQueries(), engineSeed)
	return l, genTime
}

// replay is a closed-loop, single-client workload: one warmed system
// (a System for one link, a lockstep Cluster for several) re-streams a
// recorded window from memory, whole passes only.
type replay struct {
	links    []link
	capacity float64 // per-bin cycle budget, summed over links
	policy   sched.Strategy
	genTime  time.Duration

	sys    *loadshed.System
	src0   trace.Source // the single system's source
	cl     *loadshed.Cluster
	clocks []*binClock
	sinks  []loadshed.Sink
	taps   []*tap // traced runs only
	ck     *clockShared
}

func (r *replay) clustered() bool { return len(r.links) > 1 }

func (r *replay) pkts() (n int) {
	for i := range r.links {
		n += r.links[i].pkts
	}
	return n
}

func (r *replay) bins() int { return len(r.links[0].batches) }

// sizeFactor is what a quantity that grows with the recorded window
// (set-up time, resident memory) is multiplied by to read as it would
// for a window of nominal size: the packets the presets' configured
// rates give over the packets this seed's traffic has. Seeds differ by
// ±25 % in volume, and both quantities follow the volume.
func (r *replay) sizeFactor() float64 {
	var nominal float64
	for i := range r.links {
		nominal += r.links[i].nominal * float64(len(r.links[i].batches))
	}
	return nominal / float64(r.pkts())
}

func (r *replay) config(workers int) loadshed.Config {
	return loadshed.Config{
		Scheme:   loadshed.Predictive,
		Strategy: loadshed.MMFSPkt(),
		Capacity: r.capacity,
		Workers:  workers,
		Seed:     engineSeed,
	}
}

// newEngine constructs a fresh system under test over the given
// sources (one per link).
func (r *replay) newEngine(workers int, policy sched.Strategy, srcs []trace.Source) (*loadshed.System, *loadshed.Cluster) {
	if !r.clustered() {
		return loadshed.New(r.config(workers), stdQueries()), nil
	}
	shards := make([]loadshed.Shard, len(r.links))
	for i := range r.links {
		shards[i] = loadshed.Shard{Name: r.links[i].name, Source: srcs[i], Queries: stdQueries()}
	}
	return nil, loadshed.NewCluster(loadshed.ClusterConfig{
		Base:          r.config(workers),
		TotalCapacity: r.capacity,
		ShardPolicy:   policy,
		Runners:       1,
	}, shards)
}

// build constructs the system the timed loop drives. With a tracer the
// sources and sinks are wrapped by taps; without one the only thing
// between the engine and its production sink is the bin clock.
func (r *replay) build(workers int, policy sched.Strategy, tr *tracer) {
	n := len(r.links)
	srcs := make([]trace.Source, n)
	r.ck = newClockShared()
	for i := range r.links {
		r.ck.nominal += r.links[i].nominal
	}
	r.clocks, r.sinks, r.taps = nil, nil, nil
	for i := range r.links {
		src := trace.Source(r.links[i].source())
		clock := &binClock{ticks: i == n-1, ck: r.ck}
		sink := loadshed.Sink(clock)
		if tr != nil {
			t := &tap{tr: tr, shard: i, src: src, sink: sink,
				binsPer: int64(r.bins()), shadow: newShadow(tr, i, loadshed.MMFSPkt())}
			r.taps = append(r.taps, t)
			src, sink = t, t
		}
		srcs[i] = src
		r.clocks = append(r.clocks, clock)
		r.sinks = append(r.sinks, sink)
	}
	r.sys, r.cl = r.newEngine(workers, policy, srcs)
	if r.sys != nil {
		r.src0 = srcs[0]
	}
}

// pass streams the whole window through the system once. Every pass
// gets a fresh production sink, as every start of the service does: a
// RollingStats registers the queries announced to it and is not made
// to be announced to twice.
func (r *replay) pass() {
	r.ck.startPass()
	for _, c := range r.clocks {
		c.inner = loadshed.NewRollingStats(600)
	}
	for _, t := range r.taps {
		t.loop++
	}
	if r.sys != nil {
		r.sys.Stream(r.src0, r.sinks[0])
		return
	}
	r.cl.Stream(func(i int, _ string) loadshed.Sink { return r.sinks[i] })
}

// loopStats is what a timed run of passes yields. Times are at nominal
// host speed (see kernelRun); raw keeps the passes as the clock saw them.
type loopStats struct {
	loops    []float64 // seconds per pass
	raw      []float64 // seconds per pass, unscaled
	cpus     []float64 // CPU seconds per pass
	factors  []float64 // the scale applied to each pass
	cpu      float64   // CPU seconds over all passes, unscaled
	mallocs  uint64
	allocB   uint64
	gcCPU    float64
	binsSeen int64
}

// runFor drives whole passes until d has elapsed (at least three),
// running the calibration kernel between passes.
func (r *replay) runFor(d time.Duration, h *hostSpeed) loopStats {
	var ls loopStats
	var m0, m1 runtime.MemStats
	bins0 := r.ck.bins
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	start := time.Now()
	h.factor() // a fresh kernel run right before the first pass
	for time.Since(start) < d || len(ls.loops) < 3 {
		t, c := time.Now(), cpuSeconds()
		r.pass()
		wall, cpu := time.Since(t).Seconds(), cpuSeconds()-c
		f := h.factor()
		ls.raw = append(ls.raw, wall)
		ls.loops = append(ls.loops, wall*f)
		ls.cpus = append(ls.cpus, cpu*f)
		ls.factors = append(ls.factors, f)
		ls.cpu += cpu
	}
	ls.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	ls.mallocs, ls.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ls.binsSeen = r.ck.bins - bins0
	return ls
}

// retained runs the window through a fresh system twice — a warm-up
// pass, because the timed passes are of a warmed system too (a cold
// predictor samples its first bins blind) — and keeps every record of
// the second: the pass accuracy and the digest are taken from.
func (r *replay) retained(workers int) []*loadshed.RunResult {
	srcs := make([]trace.Source, len(r.links))
	for i := range r.links {
		srcs[i] = r.links[i].source()
	}
	sys, cl := r.newEngine(workers, r.policy, srcs)
	if sys != nil {
		sys.Stream(srcs[0], nil)
		return []*loadshed.RunResult{sys.Run(srcs[0])}
	}
	cl.Stream(nil)
	var out []*loadshed.RunResult
	for _, sh := range cl.Run().Shards {
		out = append(out, sh.Result)
	}
	return out
}

// digest hashes every BinStats and IntervalResults of a retained pass.
// %v prints floats in their shortest round-trip form and maps in key
// order, so two passes agree exactly when their records are identical.
func digest(runs []*loadshed.RunResult) string {
	h := sha256.New()
	for _, res := range runs {
		for i := range res.Bins {
			fmt.Fprintf(h, "%v\n", res.Bins[i])
		}
		for i := range res.Intervals {
			fmt.Fprintf(h, "%v\n", res.Intervals[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verdict is the outcome of the checks made on a retained pass.
type verdict struct {
	digest   string
	accuracy float64 // 1 − mean over links and queries of the mean error vs the lossless reference
	util     float64 // mean (used+overhead+shed)/capacity
	allFull  bool    // every rate exactly 1
	drops    int
	checks   []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// verify runs the retained pass at Workers=1 and Workers=2, compares
// their digests (the repo's bit-identity contract), scores accuracy
// against loadshed.Reference, and checks packet conservation.
func (r *replay) verify() verdict {
	w1 := r.retained(1)
	v := verdict{digest: digest(w1), allFull: true}
	d2 := digest(r.retained(2))
	v.checks = append(v.checks, check{"digest_workers_1_eq_2", v.digest == d2, v.digest[:16] + " vs " + d2[:16]})

	conserved := true
	var errSum, utilSum float64
	var nErr, nBins int
	for i, res := range w1 {
		ref := loadshed.Reference(r.links[i].source(), stdQueries(), engineSeed)
		errs := loadshed.MeanErrors(stdQueries(), res, ref)
		for _, q := range stdQueries() { // in query order: a map's order would move the sum's last digit
			errSum += errs[q.Name()]
			nErr++
		}
		for j := range res.Bins {
			b := &res.Bins[j]
			if b.WirePkts != b.AdmitPkts+b.DropPkts {
				conserved = false
			}
			v.drops += b.DropPkts
			utilSum += (b.Used + b.Overhead + b.Shed) / b.Capacity
			nBins++
			for _, rate := range b.Rates {
				if rate != 1 {
					v.allFull = false
				}
			}
		}
	}
	v.accuracy = 1 - errSum/float64(nErr)
	v.util = utilSum / float64(nBins)
	v.checks = append(v.checks, check{"wire_eq_admit_plus_drop", conserved, ""})
	return v
}
