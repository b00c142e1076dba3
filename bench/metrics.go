package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none. Moves
// records, for a per-layer metric, which end-to-end metric it should
// move and on which workload — written down before anything is
// measured, so a later change can be checked against it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the monitor sees. Every metric is defined
// on every workload and is never zero; failures are counted against the
// packets attempted in the result line, not as a metric.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "pkts_per_s", Unit: "1/s", Better: higher, Bound: 0.15},
	{Name: "bin_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "bin_ms_p90", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "accuracy", Unit: "frac", Better: higher, Bound: 0.05},
	{Name: "cpu_us_per_kpkt", Unit: "us/kpkt", Better: lower, Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

const (
	mvReplay   = "pkts_per_s, bin_ms_p50 on overload2x and cluster_ddos; least on underload"
	mvShed     = "pkts_per_s on overload2x and cluster_ddos only; no change on underload"
	mvQueries  = "pkts_per_s, bin_ms_p90 most on underload, about half on overload2x"
	mvPredict  = "bin_ms_p50 on all replay workloads equally"
	mvIngest   = "cpu_us_per_kpkt on live_serve; none on replay workloads"
	mvEngine   = "pkts_per_s, bin_ms_* on the three replay workloads"
	mvSink     = "bin_ms_p50 on replay workloads (small); cpu_us_per_kpkt on live_serve"
	mvCluster  = "pkts_per_s, bin_ms_p50 on cluster_ddos only"
	mvNone     = "none end to end; reported so the layer is priced"
	mvLive     = "cpu_us_per_kpkt, rss_mb, setup_s on live_serve only"
	mvHost     = "interprets every timing metric, moves none"
	mvSetup    = "setup_s on every workload"
	mvPipeline = "none gated; pkts_per_s at Workers=2 over Workers=1"
)

// perLayer is printed by a traced run. A metric that does not apply to
// a workload (lsd.* outside live_serve, cluster.* outside cluster_ddos)
// reads 0 there.
var perLayer = []metricDef{
	{Name: "host.calib_ns", Unit: "ns", Better: lower, Moves: mvHost},
	{Name: "host.calib_drift", Unit: "frac", Better: lower, Moves: mvHost},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: lower, Moves: mvHost},

	{Name: "trace.next_us_per_bin", Unit: "us", Better: lower, Moves: mvReplay},
	{Name: "trace.gen_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvSetup},
	{Name: "trace.file_write_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvNone},
	{Name: "trace.file_read_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvNone},
	{Name: "trace.live_send_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvIngest},
	{Name: "trace.udp_delivered_frac", Unit: "frac", Better: higher, Moves: mvNone},
	{Name: "trace.live_dropped_bins", Unit: "count", Better: lower, Moves: "failed packets on live_serve"},
	{Name: "trace.live_bad_frames", Unit: "count", Better: lower, Moves: "failed packets on live_serve"},

	{Name: "hash.agg_ns", Unit: "ns", Better: lower, Moves: mvReplay},
	{Name: "bitmap.insert_ns", Unit: "ns", Better: lower, Moves: mvReplay},
	{Name: "bitmap.estimate_ns", Unit: "ns", Better: lower, Moves: mvReplay},
	{Name: "features.extract_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvShed},
	{Name: "features.sketch_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvReplay},
	{Name: "features.finish_us", Unit: "us", Better: lower, Moves: mvReplay},
	{Name: "features.us_per_bin", Unit: "us", Better: lower, Moves: mvReplay},

	{Name: "predict.observe_ns", Unit: "ns", Better: lower, Moves: mvPredict},
	{Name: "predict.fit_predict_us", Unit: "us", Better: lower, Moves: mvPredict},
	{Name: "predict.us_per_bin", Unit: "us", Better: lower, Moves: mvPredict},

	{Name: "sched.allocate_ns", Unit: "ns", Better: lower, Moves: mvShed},
	{Name: "core.governor_ns", Unit: "ns", Better: lower, Moves: mvShed},
	{Name: "sampling.packet_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvShed},
	{Name: "sampling.flow_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvShed},
	{Name: "sampling.us_per_bin", Unit: "us", Better: lower, Moves: mvShed},

	{Name: "queries.application.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.autofocus.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.counter.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.flows.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.high-watermark.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.p2p-detector.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.pattern-search.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.super-sources.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.top-k.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.trace.process_ns_per_pkt", Unit: "ns", Better: lower, Moves: mvQueries},
	{Name: "queries.flush_us_per_interval", Unit: "us", Better: lower, Moves: mvQueries},
	{Name: "queries.us_per_bin", Unit: "us", Better: lower, Moves: mvQueries},

	{Name: "detect.observe_ns", Unit: "ns", Better: lower, Moves: mvNone},

	{Name: "engine.self_us_per_bin", Unit: "us", Better: lower, Moves: mvEngine},
	{Name: "engine.probe_coverage", Unit: "frac", Better: higher, Moves: mvHost},
	{Name: "engine.bin_ms_p99", Unit: "ms", Better: lower, Moves: mvEngine},
	{Name: "engine.bin_ms_max", Unit: "ms", Better: lower, Moves: mvEngine},
	{Name: "engine.allocs_per_bin", Unit: "count", Better: lower, Moves: "rss_mb; the zero-allocation contract"},
	{Name: "engine.alloc_b_per_bin", Unit: "B", Better: lower, Moves: "rss_mb"},
	{Name: "engine.gc_cpu_frac", Unit: "frac", Better: lower, Moves: "cpu_us_per_kpkt on replay workloads"},
	{Name: "engine.mean_rate", Unit: "frac", Better: higher, Moves: "accuracy"},
	{Name: "engine.unsampled_frac", Unit: "frac", Better: lower, Moves: "accuracy"},
	{Name: "engine.util_mean", Unit: "frac", Better: higher, Moves: "accuracy"},

	{Name: "pipeline.speedup_w2", Unit: "ratio", Better: higher, Moves: mvPipeline},

	{Name: "sink.bin_ns", Unit: "ns", Better: lower, Moves: mvSink},
	{Name: "sink.interval_us", Unit: "us", Better: lower, Moves: mvSink},
	{Name: "sink.snapshot_us", Unit: "us", Better: lower, Moves: mvSink},
	{Name: "sink.prometheus_us", Unit: "us", Better: lower, Moves: mvSink},

	{Name: "cluster.round_us", Unit: "us", Better: lower, Moves: mvCluster},
	{Name: "cluster.coord_overhead_frac", Unit: "frac", Better: lower, Moves: mvCluster},
	{Name: "coord.round_ns_n8", Unit: "ns", Better: lower, Moves: mvCluster},
	{Name: "coord.round_ns_n32", Unit: "ns", Better: lower, Moves: mvCluster},
	{Name: "transport.tcp_round_us_p50", Unit: "us", Better: lower, Moves: mvNone},
	{Name: "transport.tcp_round_us_p99", Unit: "us", Better: lower, Moves: mvNone},

	{Name: "snapshot.take_us", Unit: "us", Better: lower, Moves: mvNone},
	{Name: "snapshot.encode_us", Unit: "us", Better: lower, Moves: mvNone},
	{Name: "snapshot.restore_us", Unit: "us", Better: lower, Moves: mvNone},
	{Name: "snapshot.bytes", Unit: "B", Better: lower, Moves: mvNone},
	{Name: "checkpoint.bytes", Unit: "B", Better: lower, Moves: mvNone},

	{Name: "lsd.startup_ms", Unit: "ms", Better: lower, Moves: mvLive},
	{Name: "lsd.scrape_ms_p50", Unit: "ms", Better: lower, Moves: mvLive},
	{Name: "lsd.shutdown_ms", Unit: "ms", Better: lower, Moves: mvLive},
	{Name: "lsd.backlog_bins_max", Unit: "count", Better: lower, Moves: "failed packets on live_serve"},
	{Name: "lsd.feeder_late_ms_max", Unit: "ms", Better: lower, Moves: mvHost},
	{Name: "lsd.cpu_share", Unit: "frac", Better: lower, Moves: mvLive},
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// the estimator the acceptance procedure uses for run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return stats.Median(xs), stats.Median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := stats.Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func durationsMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	return out
}
