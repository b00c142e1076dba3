package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// quickOpts is the -quick configuration: 20-bin traces, sub-second
// windows, live_serve at one recorded bin per tick. It checks that the
// benchmark works, not what it measures.
func quickOpts(seed uint64, traced bool) options {
	kernelIters = 400_000
	return options{seed: seed, window: 500 * time.Millisecond, traced: traced, quick: true, root: ".."}
}

func runQuick(t *testing.T, w workload, o options) *report {
	t.Helper()
	if w.Name == "live_serve" {
		o.window = 2 * time.Second
	}
	rep, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
		}
	}
	for _, d := range defsFor(o.traced) {
		v, ok := rep.Metrics[d.Name]
		if !ok && !o.traced {
			t.Errorf("%s: end-to-end metric %s missing", w.Name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v", w.Name, d.Name, v)
		}
		if !o.traced && v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v)
		}
		if d.Unit == "" || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s lacks unit or direction", d.Name)
		}
	}
	// The result line carries every metric of the run's kind with its unit.
	var line struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(resultLine(rep)), &line); err != nil {
		t.Fatalf("%s: result line: %v", w.Name, err)
	}
	if len(line.Metrics) != len(defsFor(o.traced)) || line.Attempted < 1 || line.Failed != 0 || !line.Correct {
		t.Errorf("%s: result line %+v", w.Name, line)
	}
	return rep
}

// TestQuick runs every workload untraced and traced and checks that
// every metric is there, that the traced run measured each layer where
// it applies, and that two runs of one seed agree exactly on everything
// that is not a time.
func TestQuick(t *testing.T) {
	for _, w := range workloads {
		plain := runQuick(t, w, quickOpts(1, false))
		traced := runQuick(t, w, quickOpts(1, true))
		if plain.Digest != traced.Digest {
			t.Errorf("%s: same seed, different digests: %s vs %s", w.Name, plain.Digest, traced.Digest)
		}
		if plain.Failed != traced.Failed {
			t.Errorf("%s: same seed, failed %d vs %d", w.Name, plain.Failed, traced.Failed)
		}
		if w.Name != "live_serve" {
			if plain.Digest == "" {
				t.Errorf("%s: no digest", w.Name)
			}
			if plain.Metrics["accuracy"] != traced.Metrics["accuracy"] {
				t.Errorf("%s: same seed, accuracy %v vs %v", w.Name, plain.Metrics["accuracy"], traced.Metrics["accuracy"])
			}
		}
		// Per-layer metrics that must be non-zero wherever they are measured.
		always := []string{"host.calib_ns", "trace.next_us_per_bin", "trace.gen_ns_per_pkt", "trace.file_write_ns_per_pkt",
			"trace.file_read_ns_per_pkt", "hash.agg_ns", "bitmap.insert_ns", "bitmap.estimate_ns", "features.sketch_ns_per_pkt",
			"features.finish_us", "features.us_per_bin", "predict.observe_ns", "predict.fit_predict_us", "predict.us_per_bin",
			"sched.allocate_ns", "core.governor_ns", "queries.counter.process_ns_per_pkt", "queries.p2p-detector.process_ns_per_pkt",
			"queries.flush_us_per_interval", "queries.us_per_bin", "detect.observe_ns", "engine.self_us_per_bin",
			"engine.probe_coverage", "engine.bin_ms_p99", "engine.bin_ms_max", "engine.mean_rate", "engine.util_mean",
			"sink.bin_ns", "sink.snapshot_us", "sink.prometheus_us", "coord.round_ns_n8", "coord.round_ns_n32",
			"transport.tcp_round_us_p50", "transport.tcp_round_us_p99", "snapshot.take_us", "snapshot.encode_us",
			"snapshot.restore_us", "snapshot.bytes", "checkpoint.bytes"}
		switch w.Name {
		case "overload2x":
			always = append(always, "features.extract_ns_per_pkt", "sampling.packet_ns_per_pkt", "sampling.flow_ns_per_pkt", "sampling.us_per_bin", "pipeline.speedup_w2")
		case "underload":
			always = append(always, "pipeline.speedup_w2")
			if traced.Metrics["sampling.us_per_bin"] != 0 {
				t.Errorf("underload: sampling did work: %v us per bin", traced.Metrics["sampling.us_per_bin"])
			}
		case "cluster_ddos":
			always = append(always, "cluster.round_us", "cluster.coord_overhead_frac")
		case "live_serve":
			always = append(always, "lsd.startup_ms", "lsd.scrape_ms_p50", "lsd.shutdown_ms", "lsd.cpu_share", "trace.live_send_ns_per_pkt", "trace.udp_delivered_frac")
		}
		for _, name := range always {
			if traced.Metrics[name] == 0 {
				t.Errorf("%s: per-layer metric %s was not measured", w.Name, name)
			}
		}
		if _, err := os.Stat("out/" + w.Name + ".spans.csv"); err != nil {
			t.Errorf("%s: spans not written: %v", w.Name, err)
		}
	}
	other := runQuick(t, workloads[0], quickOpts(2, false))
	again := runQuick(t, workloads[0], quickOpts(2, false))
	if other.Digest != again.Digest {
		t.Errorf("seed 2 twice: digests %s vs %s", other.Digest, again.Digest)
	}
	first := runQuick(t, workloads[0], quickOpts(1, false))
	if first.Digest == other.Digest {
		t.Errorf("seeds 1 and 2 gave the same digest %s", first.Digest)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes exactly what
// the program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %q, program has %q", i, f.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nlisted  %+v\nprogram %+v", f.EndToEnd, endToEnd)
	}
	layers := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better} // the file has no room for Moves
	}
	if !reflect.DeepEqual(f.PerLayer, layers) {
		t.Errorf("per_layer differs:\nlisted  %+v\nprogram %+v", f.PerLayer, layers)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
