package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/pkt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// options are the knobs of one run of one workload.
type options struct {
	seed   uint64
	window time.Duration // how long the run measures
	traced bool
	quick  bool   // tiny sizes, for the package's own test
	root   string // repository root: where lsd is built from and scratch files go
}

// sizes are the workloads' definition.
type sizes struct {
	traceDur  time.Duration // length of every recorded trace
	setups    int           // set-up is repeated this often; setup_s is the median
	liveMult  int           // bins' worth of packets, at the preset's nominal rate, the feeder sends per tick
	liveChunk int           // ticks per chunk of the live window; times are taken per chunk
	liveWarm  time.Duration // live schedule sent before the window
	pollEvery time.Duration // /metrics scrape period
}

// sizes returns the full sizes, or the tiny ones of -quick, whose
// numbers mean nothing. A traced run reports no setup_s and sets up once.
func (o options) sizes() sizes {
	z := sizes{30 * time.Second, 3, 8, 20, 3 * time.Second, time.Second}
	if o.quick {
		z = sizes{2 * time.Second, 1, 1, 5, 300 * time.Millisecond, 250 * time.Millisecond}
	}
	if o.traced {
		z.setups = 1
	}
	return z
}

// report is everything one run of one workload produced.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	Samples  map[string]int     `json:"samples"`
	Digest   string             `json:"digest,omitempty"`
	Checks   []check            `json:"checks"`
	// Raw holds the end-to-end times as the clock saw them, before the
	// host-speed factor; HostSpeed is the median factor applied.
	Raw       map[string]float64 `json:"raw,omitempty"`
	HostSpeed float64            `json:"host_speed,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o options) (*report, error)
}

var workloads = []workload{
	{"overload2x", "the paper's headline case: payload traffic at twice the cycle budget, so sampling, re-extraction, the allocator and the governor work every bin",
		func(o options) (*report, error) {
			return runReplay(o, "overload2x", singleLink(o, func(l link) float64 { return l.overhead + l.demand/2 }))
		}},
	{"underload", "same traffic with 32 times the budget its mean bin needs: every rate is 1 on every seed, the shed path is bypassed and queries scan every payload",
		func(o options) (*report, error) {
			return runReplay(o, "underload", singleLink(o, func(l link) float64 { return underloadBudget * (l.overhead + l.demand) }))
		}},
	{"cluster_ddos", "three links in a lockstep cluster, one under a spoofed DDoS of small new-key packets; the only workload that crosses Node, Coordinator and transport every bin",
		func(o options) (*report, error) { return runReplay(o, "cluster_ddos", ddosCluster(o)) }},
	{"live_serve", "the real lsd binary fed over a unixgram socket in an open loop; the only workload in which socket ingest, wall-clock binning, GC and the admin plane do any work",
		runLive},
}

// underloadBudget is underload's cycle budget in multiples of the
// trace's mean full-rate load. Three times the mean is not enough on
// every seed: about one generated trace in twelve holds a burst whose
// predicted load passes 3× the mean (the largest of 166 seeds scanned
// was 7.7×), the engine then sheds for a few bins, and "every rate is 1"
// — the workload's definition — fails. At 32× none of those seeds sheds
// a bin; an unshedding engine does the same work whatever its budget.
const underloadBudget = 32

// singleLink makes the CESCA-II-like replay with the cycle budget
// budget derives from the link's measured load.
func singleLink(o options, budget func(l link) float64) func() *replay {
	return func() *replay {
		l, gen := recordLink("cesca2", trace.CESCA2(o.seed, o.sizes().traceDur, 1))
		return &replay{links: []link{l}, capacity: budget(l), genTime: gen}
	}
}

// ddosCluster makes the asymmetric three-link cluster at twice the
// summed budget.
func ddosCluster(o options) func() *replay {
	return func() *replay {
		r := &replay{policy: loadshed.MMFSCPU()}
		for _, lp := range trace.AsymmetricMix(o.seed, o.sizes().traceDur, 0.5, 3) {
			l, gen := recordLink(lp.Name, lp.Config)
			r.links = append(r.links, l)
			r.capacity += l.overhead + l.demand/2
			r.genTime += gen
		}
		return r
	}
}

func newReport(name string, o options) *report {
	return &report{Workload: name, Seed: o.seed, Traced: o.traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Raw: map[string]float64{}}
}

// runReplay runs one of the three closed-loop replay workloads.
func runReplay(o options, name string, mk func() *replay) (*report, error) {
	rep := newReport(name, o)
	resetPeakRSS()
	var tr *tracer
	if o.traced {
		tr = newTracer(1 << 21)
	}
	// Set-up: trace generation, MeasureLoad, system construction and one
	// warm-up pass — done several times, the last one kept.
	var r *replay
	var setups, rawSetups []float64
	for i := 0; i < o.sizes().setups; i++ {
		r = nil
		runtime.GC()
		h := newHostSpeed()
		t := time.Now()
		r = mk()
		r.build(1, r.policy, tr)
		r.pass()
		d := time.Since(t).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*h.factor()*r.sizeFactor())
	}
	rep.Metrics["setup_s"], rep.Raw["setup_s"] = stats.Median(setups), stats.Median(rawSetups)
	rep.Samples["setups"] = len(setups)

	v := r.verify()
	rep.Digest = v.digest
	rep.Checks = append(rep.Checks, v.checks...)
	rep.Metrics["accuracy"] = v.accuracy
	switch name {
	case "underload":
		rep.check("underload_all_rates_1", v.allFull, "")
		rep.check("underload_no_drops", v.drops == 0, "%d drops", v.drops)
		rep.check("underload_error_0", v.accuracy == 1, "accuracy %v", v.accuracy)
	case "overload2x":
		rep.check("overload_util_le_1.05", v.util <= 1.05, "mean (used+overhead+shed)/capacity = %.4f", v.util)
	}

	if o.traced {
		if err := tracedReplay(o, r, rep, tr, o.window); err != nil {
			return rep, err
		}
		return rep, tr.write(filepath.Join(o.root, "bench", "out", name+".spans.csv"))
	}
	timedReplay(o, r, rep)
	if name == "underload" {
		rep.check("underload_timed_all_rates_1", r.ck.allFull, "")
	}
	return rep, nil
}

// timedReplay is the untraced measurement: whole passes for the window
// with the calibration kernel run between them. Every time is taken per
// pass, scaled to nominal host speed by the kernel runs on either side
// of the pass, and reported as the median over passes.
func timedReplay(o options, r *replay, rep *report) {
	runtime.GC()
	r.ck.reset()
	h := newHostSpeed()
	ls := r.runFor(o.window, h)
	m := rep.Metrics
	pkts := float64(r.pkts())
	m["pkts_per_s"] = pkts / stats.Median(ls.loops)
	m["bin_ms_p50"] = stats.Median(r.ck.perPass(50, ls.factors))
	m["bin_ms_p90"] = stats.Median(r.ck.perPass(90, ls.factors))
	m["cpu_us_per_kpkt"] = stats.Median(ls.cpus) * 1e6 / (pkts / 1e3)
	rep.Raw["rss_mb"] = procStatusMB("self", "VmHWM")
	m["rss_mb"] = rep.Raw["rss_mb"] * r.sizeFactor() // mostly the recorded window: per nominal-size window
	all := durationsMs(r.ck.raw)
	rep.Raw["pkts_per_s"] = pkts / stats.Median(ls.raw)
	rep.Raw["bin_ms_p50"], rep.Raw["bin_ms_p90"] = stats.Percentile(all, 50), stats.Percentile(all, 90)
	rep.Raw["cpu_us_per_kpkt"] = ls.cpu * 1e6 / (pkts * float64(len(ls.raw)) / 1e3)
	rep.HostSpeed = stats.Median(ls.factors)
	rep.Samples["passes"] = len(ls.loops)
	rep.Samples["bin_ms"] = len(all)
	rep.Attempted, rep.Failed = r.ck.wire, r.ck.drops
	rep.check("timed_wire_eq_admit_plus_drop", r.ck.conserved, "")
}

// tracedReplay is the per-layer measurement. It spends budget on, in
// order: an untraced baseline on the same warmed system; the traced
// passes (boundary spans on every bin, shadow probes on every fourth);
// a comparison system (Workers=2 for one link, an uncoordinated static
// split for a cluster); and the workload-independent micro-probes.
func tracedReplay(o options, r *replay, rep *report, tr *tracer, budget time.Duration) error {
	m := rep.Metrics
	pkts := float64(r.pkts())
	h := newHostSpeed()

	r.ck.reset()
	base := r.runFor(budget/4, h)
	basePPS := pkts / stats.Median(base.loops)
	deltas := durationsMs(r.ck.raw)
	m["engine.bin_ms_p99"] = stats.Percentile(deltas, 99)
	m["engine.bin_ms_max"] = stats.Max(deltas)
	if r.clustered() {
		var sum float64
		for _, d := range deltas {
			sum += d
		}
		m["cluster.round_us"] = sum * 1e3 / float64(len(deltas))
	}
	m["engine.allocs_per_bin"] = float64(base.mallocs) / float64(base.binsSeen)
	m["engine.alloc_b_per_bin"] = float64(base.allocB) / float64(base.binsSeen)
	m["engine.gc_cpu_frac"] = base.gcCPU / base.cpu
	for _, c := range r.clocks {
		s := c.inner.Snapshot()
		n := float64(len(r.clocks))
		m["engine.mean_rate"] += s.MeanGlobalRate / n
		m["engine.unsampled_frac"] += s.UnsampledFrac / n
		m["engine.util_mean"] += s.MeanUtil / n
	}
	rep.Samples["baseline_loops"] = len(base.loops)

	for _, t := range r.taps {
		t.on = true
	}
	traced := r.runFor(budget*2/5, h)
	for _, t := range r.taps {
		t.on = false
	}
	m["bench.trace_overhead_frac"] = 1 - pkts/stats.Median(traced.loops)/basePPS
	rep.Samples["traced_loops"] = len(traced.loops)
	rep.Samples["spans"] = len(tr.spans)
	rep.Samples["spans_dropped"] = tr.dropped
	shadowMetrics(m, r.taps)
	rep.Samples["probed_bins"] = int(r.taps[0].shadow.bins)

	other := &replay{links: r.links, capacity: r.capacity}
	sys0, cfg0 := r.sys, r.config(1)
	if r.clustered() {
		other.build(1, nil, nil)
		sys0 = r.cl.Shards()[0]
		cfg0.Capacity = r.capacity / float64(len(r.links))
	} else {
		other.build(2, nil, nil)
	}
	other.pass()
	cmp := other.runFor(budget*3/20, h)
	if r.clustered() {
		m["cluster.coord_overhead_frac"] = stats.Median(base.loops)/stats.Median(cmp.loops) - 1
	} else {
		m["pipeline.speedup_w2"] = stats.Median(base.loops) / stats.Median(cmp.loops)
	}

	// The micro-probes allocate; finish any collection the comparison
	// system set off so none of them is timed with the collector running.
	runtime.GC()
	sinkProbes(m, r.clocks[0].inner)
	if err := snapshotProbes(m, sys0, cfg0); err != nil {
		return err
	}
	if err := microProbes(m, &r.links[0], filepath.Join(o.root, buildDir)); err != nil {
		return err
	}
	m["trace.gen_ns_per_pkt"] = float64(r.genTime.Nanoseconds()) / pkts
	m["host.calib_ns"] = stats.Median(h.samples)
	m["host.calib_drift"] = spread(h.samples)
	if rep.Attempted == 0 { // live_serve has counted its own
		rep.Attempted, rep.Failed = r.ck.wire, r.ck.drops
	}
	return nil
}

// runLive runs the open-loop workload against the real lsd binary.
func runLive(o options) (*report, error) {
	rep := newReport("live_serve", o)
	bin, err := buildLsd(o.root)
	if err != nil {
		return rep, err
	}
	sockLsd, sockBench, err := liveSocket(o.root)
	if err != nil {
		return rep, err
	}
	defer os.Remove(sockBench)
	mult := o.sizes().liveMult
	var capacity float64
	var flat []pkt.Packet // the recorded window as one packet sequence
	perTick := 0
	// lsd can exit before it has unlinked its socket, and a stale file
	// makes the next bind fail, so the path is cleared before each start.
	start := func() (*lsdProc, error) {
		os.Remove(sockBench)
		return startLsd(o.root, bin, "unix://"+sockLsd, capacity)
	}

	// Set-up: trace generation, MeasureLoad and exec → /readyz 200 —
	// done several times, the last lsd kept.
	var l link
	var gen time.Duration
	var p *lsdProc
	var setups, rawSetups []float64
	for i := 0; i < o.sizes().setups; i++ {
		if p != nil {
			if _, err := p.stop(); err != nil {
				return rep, err
			}
		}
		runtime.GC()
		h := newHostSpeed()
		t := time.Now()
		l, gen = recordLink("cesca2", trace.CESCA2(o.seed, o.sizes().traceDur, 1))
		// Twice overloaded at the rate the feeder offers: the demand of
		// a tick is the trace's demand per packet times the tick's size.
		perTick = mult * int(l.nominal)
		perPkt := l.demand / (float64(l.pkts) / float64(len(l.batches)))
		capacity = float64(mult)*l.overhead + perPkt*float64(perTick)/2
		flat = flat[:0]
		for i := range l.batches {
			flat = append(flat, l.batches[i].Pkts...)
		}
		recorded := time.Since(t).Seconds() // follows the seed's traffic volume; lsd's start does not
		if p, err = start(); err != nil {
			return rep, err
		}
		d := time.Since(t).Seconds()
		rawSetups = append(rawSetups, d)
		size := (&replay{links: []link{l}}).sizeFactor()
		setups = append(setups, (recorded*size+d-recorded)*h.factor())
	}
	defer func() {
		if p != nil && p.cmd.ProcessState == nil {
			p.kill()
		}
	}()
	m := rep.Metrics
	m["setup_s"], rep.Raw["setup_s"] = stats.Median(setups), stats.Median(rawSetups)
	rep.Samples["setups"] = len(setups)

	window := o.window
	if o.traced {
		window = o.window * 2 / 5
	}
	snd, err := loadshed.DialLive("unixgram", sockBench)
	if err != nil {
		return rep, err
	}
	fs, err := feed(p, snd, flat, perTick, o.sizes().liveChunk, o.sizes().liveWarm, window, o.sizes().pollEvery)
	snd.Close()
	if err != nil {
		return rep, err
	}
	final, err := settle(p, fs.sentAll, 20)
	if err != nil {
		return rep, err
	}
	startup := p.startup
	shutdown, stopErr := p.stop()
	rep.check("clean_exit_on_sigterm", stopErr == nil, "%v", stopErr)

	wire := int64(final["lsd_wire_packets_total"])
	bad := int64(final["lsd_ingest_bad_frames_total"])
	var cpus, factors, kernels, ticks, rawTicks []float64
	for _, c := range fs.chunks {
		f := kernelNominal / stats.Median(c.kernel)
		cpus = append(cpus, c.cpu*1e6/(float64(c.sent)/1e3)*f)
		factors = append(factors, f)
		kernels = append(kernels, c.kernel...)
		ticks = append(ticks, c.ticks...)
		rawTicks = append(rawTicks, c.raw...)
	}
	m["pkts_per_s"] = float64(fs.sent) / fs.wall.Seconds()
	m["bin_ms_p50"] = stats.Percentile(ticks, 50)
	m["bin_ms_p90"] = stats.Percentile(ticks, 90)
	m["accuracy"] = 1 - final["lsd_window_unsampled_fraction"]
	m["cpu_us_per_kpkt"] = stats.Median(cpus)
	// lsd's resident set as a scraper would see it: the median of the
	// polls, not the peak — the peak depends on where one collection
	// happened to fall and moved by a fifth between identical runs.
	m["rss_mb"] = stats.Median(fs.rssMB)
	rep.Raw["bin_ms_p50"], rep.Raw["bin_ms_p90"] = stats.Percentile(rawTicks, 50), stats.Percentile(rawTicks, 90)
	rep.Raw["cpu_us_per_kpkt"] = fs.cpu * 1e6 / (float64(fs.sent) / 1e3)
	rep.HostSpeed = stats.Median(factors)
	rep.Samples["ticks"] = fs.nticks
	rep.Samples["chunks"] = len(fs.chunks)
	rep.Samples["scrapes"] = len(fs.scrapesMs)
	rep.Attempted = fs.sent
	rep.Failed = max(0, fs.sentAll-wire) + bad + int64(final["lsd_drop_packets_total"])
	rep.check("live_wire_eq_sent", wire == fs.sentAll, "lsd counted %d of %d packets sent", wire, fs.sentAll)
	rep.check("live_no_bad_frames", bad == 0, "%d bad frames", bad)
	rep.check("live_backlog_le_2_bins", fs.behind <= 2, "ended %.2f bins behind wall clock (%.2f at worst)", fs.behind, fs.backlog)
	if fs.lateMax > 5*time.Millisecond {
		fmt.Fprintf(os.Stderr, "bench: live_serve feeder ran %.1f ms late at worst (want < 5 ms)\n", float64(fs.lateMax)/1e6)
	}
	if !o.traced {
		return rep, nil
	}

	m["lsd.startup_ms"] = float64(startup.Nanoseconds()) / 1e6
	m["lsd.scrape_ms_p50"] = stats.Median(fs.scrapesMs)
	m["lsd.shutdown_ms"] = float64(shutdown.Nanoseconds()) / 1e6
	m["lsd.backlog_bins_max"] = fs.backlog
	m["lsd.feeder_late_ms_max"] = float64(fs.lateMax.Nanoseconds()) / 1e6
	m["lsd.cpu_share"] = fs.cpu / fs.wall.Seconds()
	m["trace.live_send_ns_per_pkt"] = float64(fs.sendTime.Nanoseconds()) / float64(fs.sent)
	m["trace.live_dropped_bins"] = final["lsd_ingest_dropped_bins_total"]
	m["trace.live_bad_frames"] = float64(bad)
	liveCalib, liveDrift := stats.Median(kernels), spread(kernels)

	frac, err := udpDelivered(o, bin, flat, perTick, capacity, o.window/5)
	if err != nil {
		return rep, err
	}
	m["trace.udp_delivered_frac"] = frac

	// The layers inside lsd cannot be probed from outside the process,
	// so the same engine configuration replays the same ticks in this
	// process under the taps.
	tr := newTracer(1 << 20)
	r := &replay{links: []link{tickBatches(l, flat, perTick)}, capacity: capacity, genTime: gen}
	r.build(1, nil, tr)
	r.pass()
	if err := tracedReplay(o, r, rep, tr, o.window*3/10); err != nil {
		return rep, err
	}
	m["host.calib_ns"], m["host.calib_drift"] = liveCalib, liveDrift // of the live window, not the replay
	return rep, tr.write(filepath.Join(o.root, "bench", "out", "live_serve.spans.csv"))
}

// udpDelivered feeds a second lsd the same schedule over loopback UDP
// with default socket buffers and reports the share of packets that
// arrived. UDP is not flow-controlled, so a tick sent as one burst
// overruns the receive buffer; the figure is reported, not gated.
func udpDelivered(o options, bin string, pkts []pkt.Packet, perTick int, capacity float64, d time.Duration) (float64, error) {
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p, err := startLsd(o.root, bin, "udp://"+addr, capacity)
	if err != nil {
		return 0, err
	}
	snd, err := loadshed.DialLive("udp", addr)
	if err != nil {
		p.kill()
		return 0, err
	}
	fs, err := feed(p, snd, pkts, perTick, o.sizes().liveChunk, 0, d, o.sizes().pollEvery)
	snd.Close()
	if err != nil {
		p.kill()
		return 0, err
	}
	final, err := settle(p, fs.sentAll, 3)
	if _, stopErr := p.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return 0, err
	}
	return final["lsd_wire_packets_total"] / float64(fs.sentAll), nil
}

// tickBatches cuts the packet sequence into batches of perTick packets,
// the batch lsd's wall-clock binning makes of a tick.
func tickBatches(l link, flat []pkt.Packet, perTick int) link {
	out := link{name: l.name, bin: l.bin, nominal: float64(perTick)}
	for k := 0; k+perTick <= len(flat); k += perTick {
		out.batches = append(out.batches, pkt.Batch{Start: time.Duration(len(out.batches)) * l.bin, Bin: l.bin, Pkts: flat[k : k+perTick]})
		out.pkts += perTick
	}
	return out
}
