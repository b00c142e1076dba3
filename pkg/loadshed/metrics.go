package loadshed

// metrics.go renders a RollingSnapshot in the Prometheus text exposition
// format, hand-written against the stdlib so the admin plane of a
// serving deployment (cmd/lsd -serve) has no dependencies. The mapping
// from the thesis' quantities to metric names:
//
//	lsd_window_drop_fraction        uncontrolled capture ("DAG") drops / offered
//	lsd_window_unsampled_fraction   the online accuracy-error proxy (§2.2.1)
//	lsd_window_mean_global_rate     min sampling rate across queries
//	lsd_query_rate{query=...}       per-query applied rate (Ch. 5 strategies)
//	lsd_window_mean_delay_bins      capture-buffer occupancy, in bins (§4.1)
//	lsd_window_budget_utilization   (used+overhead+shed)/capacity
//
// Lifetime counters carry the _total suffix per Prometheus conventions;
// windowed gauges say so in their name because their value is a mean
// over the last lsd_window_bins bins, not an instantaneous reading.

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
)

// MetricsWriter writes metric families to W in the Prometheus text
// exposition format — the one emitter behind every /metrics plane of
// cmd/lsd. Values print with %v, so integers stay integral and floats
// use the shortest %g form. Write errors are dropped: hand it a buffer
// when they matter, as WritePrometheus does (an HTTP response has
// nobody left to tell).
type MetricsWriter struct {
	W io.Writer
}

// promEscaper escapes a label value per the text exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (m *MetricsWriter) family(name, help, typ string) {
	fmt.Fprintf(m.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes one unlabelled counter.
func (m *MetricsWriter) Counter(name, help string, v any) {
	m.family(name, help, "counter")
	fmt.Fprintf(m.W, "%s %v\n", name, v)
}

// Gauge writes one unlabelled gauge.
func (m *MetricsWriter) Gauge(name, help string, v any) {
	m.family(name, help, "gauge")
	fmt.Fprintf(m.W, "%s %v\n", name, v)
}

// GaugeVec writes a gauge family of n series distinguished by one
// label; at returns series i's label value and sample.
func (m *MetricsWriter) GaugeVec(name, help, label string, n int, at func(i int) (string, any)) {
	m.family(name, help, "gauge")
	for i := 0; i < n; i++ {
		lv, v := at(i)
		fmt.Fprintf(m.W, "%s{%s=\"%s\"} %v\n", name, label, promEscaper.Replace(lv), v)
	}
}

// Runtime writes the Go runtime's own numbers, the ones that say whether
// a service's time is going to the collector instead of the engine: GC
// cycles, the collector's share of all CPU time the process has had,
// heap in use and goroutines. Every admin plane of cmd/lsd carries them.
func (m *MetricsWriter) Runtime() {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(s)
	var gcFrac float64
	if total := s[2].Value.Float64(); total > 0 {
		gcFrac = s[1].Value.Float64() / total
	}
	m.Counter("go_gc_cycles_total", "Completed garbage-collection cycles.", s[0].Value.Uint64())
	m.Gauge("go_gc_cpu_fraction", "Share of the process's available CPU time spent in the collector since start.", gcFrac)
	m.Gauge("go_heap_inuse_bytes", "Bytes in heap spans that hold objects, live or not yet swept.", s[3].Value.Uint64()+s[4].Value.Uint64())
	m.Gauge("go_goroutines", "Live goroutines.", s[5].Value.Uint64())
}

// WritePrometheus writes the snapshot as Prometheus text-format metrics.
// Per-query series are labelled query="name"; a removed query keeps
// reporting with lsd_query_active 0 until the stream restarts, so
// dashboards see the removal instead of a vanishing series.
func (s RollingSnapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	m := MetricsWriter{W: &b}
	counter, gauge := m.Counter, m.Gauge

	counter("lsd_bins_total", "Time bins processed since start.", float64(s.Bins))
	counter("lsd_intervals_total", "Measurement intervals flushed since start.", float64(s.Intervals))
	counter("lsd_wire_packets_total", "Packets offered on the wire since start.", float64(s.WirePkts))
	counter("lsd_drop_packets_total", "Uncontrolled capture-buffer drops since start.", float64(s.DropPkts))
	counter("lsd_admit_packets_total", "Packets admitted into the system since start.", float64(s.AdmitPkts))
	counter("lsd_export_cycles_total", "Cycles spent flushing interval results since start.", s.ExportCycles)

	gauge("lsd_window_bins", "Bins covered by the windowed metrics below.", float64(s.WindowBins))
	gauge("lsd_window_packets_per_bin", "Mean offered load over the window, packets per bin.", s.PktsPerBin)
	gauge("lsd_window_drop_fraction", "Uncontrolled drops / offered packets over the window.", s.DropFrac)
	gauge("lsd_window_unsampled_fraction", "Fraction of admitted packets not processed at the applied rate (accuracy-error proxy).", s.UnsampledFrac)
	gauge("lsd_window_mean_global_rate", "Mean of the per-bin minimum sampling rate over the window.", s.MeanGlobalRate)
	gauge("lsd_window_mean_delay_bins", "Mean capture-buffer occupancy over the window, in bins.", s.MeanDelay)
	gauge("lsd_window_max_delay_bins", "Max capture-buffer occupancy over the window, in bins.", s.MaxDelay)
	gauge("lsd_window_mean_used_cycles", "Mean measured query cycles per bin over the window.", s.MeanUsed)
	gauge("lsd_window_mean_overhead_cycles", "Mean platform+prediction cycles per bin over the window.", s.MeanOverhead)
	gauge("lsd_window_mean_shed_cycles", "Mean sampling+re-extraction cycles per bin over the window.", s.MeanShed)
	gauge("lsd_window_budget_utilization", "(used+overhead+shed)/capacity averaged over finite-capacity bins of the window.", s.MeanUtil)

	counter("lsd_change_events_total", "Traffic-change verdicts raised by the drift detector since start.", float64(s.ChangesTotal))
	gauge("lsd_change_last_bin", "Bin index of the latest change verdict (-1 when none).", float64(s.LastChangeBin))
	gauge("lsd_change_window_events", "Change verdicts inside the window.", float64(s.WindowChanges))
	gauge("lsd_change_window_mean_score", "Mean detector score over the window (1 = firing threshold).", s.MeanChangeScore)

	if len(s.Queries) > 0 {
		m.GaugeVec("lsd_query_rate", "Mean applied sampling rate per query over the window.", "query", len(s.Queries), func(i int) (string, any) {
			var rate float64
			if i < len(s.MeanRates) {
				rate = s.MeanRates[i]
			}
			return s.Queries[i], rate
		})
		m.GaugeVec("lsd_query_active", "Whether the query is currently registered (0 after RemoveQuery).", "query", len(s.Queries), func(i int) (string, any) {
			active := 1
			if i < len(s.Active) && !s.Active[i] {
				active = 0
			}
			return s.Queries[i], active
		})
	}

	_, err := io.WriteString(w, b.String())
	return err
}
