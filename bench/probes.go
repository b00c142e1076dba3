package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// probeEvery is how often a traced run shadow-probes a bin. Boundary
// spans are taken on every bin; probing every fourth keeps the traced
// loop close enough to the untraced one that the engine's self time
// still means something.
const probeEvery = 4

// timeN returns the mean duration of n calls of fn.
func timeN(n int, fn func()) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t) / time.Duration(n)
}

// sinkProbes prices the read side of the production sink.
func sinkProbes(m map[string]float64, roll *loadshed.RollingStats) {
	var snap loadshed.RollingSnapshot
	m["sink.snapshot_us"] = float64(timeN(200, func() { snap = roll.Snapshot() }).Nanoseconds()) / 1e3
	m["sink.prometheus_us"] = float64(timeN(200, func() { snap.WritePrometheus(io.Discard) }).Nanoseconds()) / 1e3
}

// snapshotProbes prices the persistence layer on a warmed system:
// time to take, encode and restore its state, and the state's size.
func snapshotProbes(m map[string]float64, sys *loadshed.System, cfg loadshed.Config) error {
	var snap *loadshed.SystemSnapshot
	var err error
	m["snapshot.take_us"] = float64(timeN(20, func() { snap, err = sys.Snapshot() }).Nanoseconds()) / 1e3
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var buf bytes.Buffer
	m["snapshot.encode_us"] = float64(timeN(20, func() {
		buf.Reset()
		err = snap.Encode(&buf)
	}).Nanoseconds()) / 1e3
	if err != nil {
		return fmt.Errorf("snapshot encode: %w", err)
	}
	m["snapshot.bytes"] = float64(buf.Len())
	blob := append([]byte(nil), buf.Bytes()...)
	m["snapshot.restore_us"] = float64(timeN(20, func() {
		var dec *loadshed.SystemSnapshot
		if dec, err = loadshed.DecodeSnapshot(bytes.NewReader(blob)); err == nil {
			err = loadshed.New(cfg, stdQueries()).Restore(dec)
		}
	}).Nanoseconds()) / 1e3
	if err != nil {
		return fmt.Errorf("snapshot restore: %w", err)
	}
	spec := loadshed.ShardSpec{Scheme: "predictive", Strategy: "mmfs_pkt", Seed: cfg.Seed, Capacity: cfg.Capacity, Workers: 1}
	for _, q := range stdQueries() {
		spec.Queries = append(spec.Queries, loadshed.QuerySpec{Kind: q.Name(), Seed: engineSeed})
	}
	cp := loadshed.ShardCheckpoint{Node: "bench", Bin: 0, Spec: spec, Snap: snap}
	cpBlob, err := cp.EncodeBytes()
	if err != nil {
		return fmt.Errorf("checkpoint encode: %w", err)
	}
	m["checkpoint.bytes"] = float64(len(cpBlob))
	return nil
}

// coordRound prices one lockstep coordination round — n reports, one
// allocation, n grants — over the loopback transport.
func coordRound(n int) float64 {
	coord := loadshed.NewCoordinator(loadshed.MMFSCPU(), 1e9)
	trs := make([]loadshed.NodeTransport, n)
	names := make([]string, n)
	for i := range trs {
		names[i] = fmt.Sprintf("n%d", i)
		trs[i] = loadshed.NewLoopback(coord, names[i], 0)
	}
	bin := int64(0)
	round := func() {
		bin++
		for i, tr := range trs {
			tr.Report(loadshed.DemandReport{Node: names[i], Bin: bin, Demand: 1e6 * float64(1+(int(bin)+i)%7)})
		}
		coord.AllocateRound()
		for _, tr := range trs {
			if g, ok := tr.Grant(); ok {
				calibSink += uint64(g.Round)
			}
		}
	}
	round()
	return float64(timeN(2000, round).Nanoseconds())
}

// tcpRounds prices the coordinator link over 127.0.0.1: the time from
// a worker's Report to the first grant of a later round reaching it.
// The server allocates on its heartbeat (1 ms here), so the figure
// holds the wait for the next tick as well as the two crossings.
func tcpRounds(rounds int) (p50, p99 float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	coord := loadshed.NewCoordinator(loadshed.MMFSCPU(), 1e9)
	srv := loadshed.ServeCoordinator(ln, coord, loadshed.CoordServerConfig{Heartbeat: time.Millisecond, Lease: 5 * time.Second})
	defer srv.Close()
	cli, err := loadshed.DialCoordinator(ln.Addr().String(), "probe", loadshed.CoordClientConfig{Lease: 5 * time.Second})
	if cli == nil {
		return 0, 0, err
	}
	defer cli.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("dial coordinator: %w", err)
	}
	var us []float64
	last := uint64(0)
	for k := 0; k < rounds+1; k++ {
		t := time.Now()
		if err := cli.Report(loadshed.DemandReport{Node: "probe", Bin: int64(k), Demand: 1e6}); err != nil {
			return 0, 0, fmt.Errorf("report: %w", err)
		}
		for {
			if g, ok := cli.Grant(); ok && g.Round > last {
				last = g.Round
				break
			}
			if time.Since(t) > 2*time.Second {
				return 0, 0, fmt.Errorf("no grant within 2s of report %d", k)
			}
			time.Sleep(20 * time.Microsecond) // a spin would starve the netpoller on two cores
		}
		if k > 0 { // the first round also carries the join
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return stats.Percentile(us, 50), stats.Percentile(us, 99), nil
}

// fileProbes prices the trace file format: the first bins of a link
// written through WriteTrace and streamed back through OpenTraceFile.
func fileProbes(m map[string]float64, l *link, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := min(len(l.batches), 50)
	src := trace.NewMemorySource(l.batches[:n], l.bin)
	pkts := 0
	for i := 0; i < n; i++ {
		pkts += len(l.batches[i].Pkts)
	}
	path := filepath.Join(dir, "probe.trace")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t := time.Now()
	if err := loadshed.WriteTrace(f, src); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	m["trace.file_write_ns_per_pkt"] = float64(time.Since(t).Nanoseconds()) / float64(pkts)
	t = time.Now()
	tf, err := loadshed.OpenTraceFile(path)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	defer tf.Close()
	got := 0
	for {
		b, ok := tf.NextBatch()
		if !ok {
			break
		}
		got += len(b.Pkts)
	}
	m["trace.file_read_ns_per_pkt"] = float64(time.Since(t).Nanoseconds()) / float64(pkts)
	if err := tf.Err(); err != nil {
		return fmt.Errorf("read trace: %w", err)
	}
	if got != pkts {
		return fmt.Errorf("trace file round trip: wrote %d packets, read %d", pkts, got)
	}
	return nil
}

// microProbes runs every workload-independent probe.
func microProbes(m map[string]float64, l *link, tmpDir string) error {
	m["coord.round_ns_n8"] = coordRound(8)
	m["coord.round_ns_n32"] = coordRound(32)
	p50, p99, err := tcpRounds(200)
	if err != nil {
		return err
	}
	m["transport.tcp_round_us_p50"], m["transport.tcp_round_us_p99"] = p50, p99
	return fileProbes(m, l, tmpDir)
}

// shadowMetrics turns the pooled shadow accumulators and the taps'
// boundary sums into the per-layer figures.
func shadowMetrics(m map[string]float64, taps []*tap) {
	s := taps[0].shadow
	for _, t := range taps[1:] {
		s.merge(t.shadow)
	}
	var self, next, sinkBin, sinkIv time.Duration
	var bins, ivs int64
	for _, t := range taps {
		self += t.selfSum
		next += t.nextSum
		sinkBin += t.sinkBin
		sinkIv += t.sinkIv
		bins += t.selfN
		ivs += t.intervals
	}
	perBin := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	m["trace.next_us_per_bin"] = perBin(next, bins)
	m["sink.bin_ns"] = perBin(sinkBin, bins) * 1e3
	m["sink.interval_us"] = perBin(sinkIv, ivs)
	m["engine.self_us_per_bin"] = perBin(self, bins)

	m["hash.agg_ns"] = s.per("hash.agg")
	m["bitmap.insert_ns"] = s.per("bitmap.insert")
	m["bitmap.estimate_ns"] = s.perCall("bitmap.estimate")
	m["features.extract_ns_per_pkt"] = s.per("features.extract")
	m["features.sketch_ns_per_pkt"] = s.per("features.sketch")
	m["features.finish_us"] = s.perCall("features.finish") / 1e3
	m["predict.observe_ns"] = s.perCall("predict.observe")
	m["predict.fit_predict_us"] = s.perCall("predict.fit_predict") / 1e3
	m["sched.allocate_ns"] = s.perCall("sched.allocate")
	m["core.governor_ns"] = s.perCall("core.governor.decide") + s.perCall("core.governor.observe")
	m["sampling.packet_ns_per_pkt"] = s.per("sampling.packet")
	m["sampling.flow_ns_per_pkt"] = s.per("sampling.flow")
	m["detect.observe_ns"] = s.perCall("detect.observe")
	for _, q := range s.qs {
		m["queries."+q.Name()+".process_ns_per_pkt"] = s.per("queries." + q.Name() + ".process")
	}
	if a := s.acc["queries.flush"]; a != nil && ivs > 0 {
		m["queries.flush_us_per_interval"] = float64(a.dur.Nanoseconds()) / 1e3 / float64(ivs)
	}
	var probed time.Duration
	for _, layer := range []string{"features", "predict", "sampling", "queries", "sched", "core"} {
		probed += s.layers[layer]
		if layer != "sched" && layer != "core" {
			m[layer+".us_per_bin"] = perBin(s.layers[layer], s.bins)
		}
	}
	if selfPerBin := m["engine.self_us_per_bin"]; selfPerBin > 0 {
		m["engine.probe_coverage"] = perBin(probed, s.bins) / selfPerBin
	}
}
