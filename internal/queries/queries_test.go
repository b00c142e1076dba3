package queries

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/trace"
)

func mkBatch(pkts ...pkt.Packet) *pkt.Batch {
	return &pkt.Batch{Bin: 100 * time.Millisecond, Pkts: pkts}
}

func tcp(src, dst uint32, sp, dp uint16, size int) pkt.Packet {
	return pkt.Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: pkt.ProtoTCP, Size: size}
}

func TestCostModelCycles(t *testing.T) {
	m := CostModel{PerPacket: 1, PerByte: 2, PerLookup: 3, PerInsert: 4, PerSort: 5, PerFlush: 6, PerBatch: 100}
	got := m.Cycles(Ops{Packets: 1, Bytes: 1, Lookups: 1, Inserts: 1, Sorts: 1, Flushes: 1})
	if got != 100+1+2+3+4+5+6 {
		t.Fatalf("Cycles = %v", got)
	}
}

func TestCostModelRelativeOrdering(t *testing.T) {
	// Figure 2.2's shape: byte-scanning queries dwarf counter-style
	// queries on payload traffic.
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: 2 * time.Second, PacketsPerSec: 10000, Payload: true})
	model := DefaultCostModel()
	cost := map[string]float64{}
	qs := FullSet(Config{})
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, q := range qs {
			cost[q.Name()] += model.Cycles(q.Process(&b, 1))
		}
	}
	if cost["p2p-detector"] < 2*cost["counter"] {
		t.Errorf("p2p-detector (%.0f) should be far more expensive than counter (%.0f)", cost["p2p-detector"], cost["counter"])
	}
	if cost["pattern-search"] < 2*cost["counter"] {
		t.Errorf("pattern-search (%.0f) should be far more expensive than counter (%.0f)", cost["pattern-search"], cost["counter"])
	}
	if cost["counter"] <= 0 || cost["application"] <= 0 {
		t.Error("cheap queries must still cost something")
	}
}

func TestCounterExactWithoutSampling(t *testing.T) {
	q := NewCounter(Config{})
	q.Process(mkBatch(tcp(1, 2, 3, 80, 100), tcp(1, 2, 3, 80, 300)), 1)
	res, _ := q.Flush()
	r := res.(counterResult)
	if r.Packets != 2 || r.Bytes != 400 {
		t.Fatalf("result = %+v", r)
	}
}

func TestCounterScalesBySamplingRate(t *testing.T) {
	q := NewCounter(Config{})
	q.Process(mkBatch(tcp(1, 2, 3, 80, 100)), 0.5)
	res, _ := q.Flush()
	r := res.(counterResult)
	if r.Packets != 2 || r.Bytes != 200 {
		t.Fatalf("scaled result = %+v", r)
	}
}

func TestCounterErrorSymmetricComponents(t *testing.T) {
	q := NewCounter(Config{})
	got := counterResult{Packets: 90, Bytes: 100}
	ref := counterResult{Packets: 100, Bytes: 100}
	if e := q.Error(got, ref); math.Abs(e-0.05) > 1e-9 {
		t.Fatalf("error = %v, want 0.05", e)
	}
}

func TestCounterFlushResets(t *testing.T) {
	q := NewCounter(Config{})
	q.Process(mkBatch(tcp(1, 2, 3, 80, 100)), 1)
	q.Flush()
	res, _ := q.Flush()
	r := res.(counterResult)
	if r.Packets != 0 {
		t.Fatal("Flush did not reset state")
	}
}

func TestApplicationClassification(t *testing.T) {
	q := NewApplication(Config{})
	q.Process(mkBatch(
		tcp(1, 2, 999, 80, 100),   // web
		tcp(1, 2, 999, 443, 200),  // web
		tcp(1, 2, 999, 53, 50),    // dns
		tcp(1, 2, 999, 6881, 400), // p2p
		tcp(1, 2, 999, 12345, 60), // other
	), 1)
	res, _ := q.Flush()
	r := res.(applicationResult)
	if r.Apps[appWeb].Packets != 2 || r.Apps[appWeb].Bytes != 300 {
		t.Errorf("web = %+v", r.Apps[appWeb])
	}
	if r.Apps[appDNS].Packets != 1 {
		t.Errorf("dns = %+v", r.Apps[appDNS])
	}
	if r.Apps[appP2P].Bytes != 400 {
		t.Errorf("p2p = %+v", r.Apps[appP2P])
	}
	if r.Apps[appOther].Packets != 1 {
		t.Errorf("other = %+v", r.Apps[appOther])
	}
}

func TestApplicationErrorWeighted(t *testing.T) {
	q := NewApplication(Config{})
	var ref, got applicationResult
	ref.Apps[appWeb] = appCounts{Packets: 90, Bytes: 900}
	ref.Apps[appDNS] = appCounts{Packets: 10, Bytes: 100}
	got.Apps[appWeb] = appCounts{Packets: 90, Bytes: 900} // exact
	got.Apps[appDNS] = appCounts{Packets: 5, Bytes: 50}   // 50% off
	// Weighted: 0.9*0 + 0.1*0.5 = 0.05.
	if e := q.Error(got, ref); math.Abs(e-0.05) > 1e-9 {
		t.Fatalf("error = %v, want 0.05", e)
	}
}

func TestFlowsCountsDistinct(t *testing.T) {
	q := NewFlows(Config{})
	q.Process(mkBatch(
		tcp(1, 2, 10, 80, 100),
		tcp(1, 2, 10, 80, 100), // same flow
		tcp(1, 2, 11, 80, 100), // new flow
	), 1)
	res, _ := q.Flush()
	if r := res.(flowsResult); r.Flows != 2 {
		t.Fatalf("flows = %v, want 2", r.Flows)
	}
}

func TestFlowsScalesByRate(t *testing.T) {
	q := NewFlows(Config{})
	q.Process(mkBatch(tcp(1, 2, 10, 80, 100)), 0.25)
	res, _ := q.Flush()
	if r := res.(flowsResult); r.Flows != 4 {
		t.Fatalf("scaled flows = %v, want 4", r.Flows)
	}
}

func TestFlowsOpsCountInserts(t *testing.T) {
	q := NewFlows(Config{})
	ops := q.Process(mkBatch(
		tcp(1, 2, 10, 80, 100),
		tcp(1, 2, 10, 80, 100),
		tcp(1, 2, 11, 80, 100),
	), 1)
	if ops.Inserts != 2 || ops.Lookups != 3 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestFlowsPrefersFlowSampling(t *testing.T) {
	if NewFlows(Config{}).Method() != sampling.Flow {
		t.Fatal("flows should use flow sampling")
	}
}

func TestHighWatermark(t *testing.T) {
	q := NewHighWatermark(Config{})
	b := mkBatch(
		pkt.Packet{Ts: 0, Size: 100},
		pkt.Packet{Ts: int64(50 * time.Millisecond), Size: 100},
		pkt.Packet{Ts: int64(150 * time.Millisecond), Size: 500},
	)
	q.Process(b, 1)
	res, _ := q.Flush()
	if r := res.(highWatermarkResult); r.WatermarkBytes != 500 {
		t.Fatalf("watermark = %v, want 500", r.WatermarkBytes)
	}
}

func TestTraceQueryCountsAll(t *testing.T) {
	q := NewTraceQuery(Config{})
	q.Process(mkBatch(tcp(1, 2, 3, 80, 100), tcp(1, 2, 3, 80, 200)), 1)
	res, _ := q.Flush()
	r := res.(traceResult)
	if r.Packets != 2 || r.Bytes != 300 {
		t.Fatalf("trace result = %+v", r)
	}
}

func TestTraceErrorIsProcessedFraction(t *testing.T) {
	q := NewTraceQuery(Config{})
	e := q.Error(traceResult{Packets: 30}, traceResult{Packets: 100})
	if math.Abs(e-0.7) > 1e-9 {
		t.Fatalf("error = %v, want 0.7", e)
	}
	if q.Error(traceResult{}, traceResult{}) != 0 {
		t.Fatal("empty reference should give zero error")
	}
}

func TestPatternSearchFindsEmbedded(t *testing.T) {
	q := NewPatternSearch(Config{}, []byte("NEEDLE"))
	pay := append(bytes.Repeat([]byte{'x'}, 50), []byte("xxNEEDLEyy")...)
	b := mkBatch(
		pkt.Packet{Size: 100, Payload: pay},
		pkt.Packet{Size: 100, Payload: bytes.Repeat([]byte{'z'}, 60)},
	)
	q.Process(b, 1)
	res, _ := q.Flush()
	r := res.(patternResult)
	if r.Matches != 1 {
		t.Fatalf("matches = %v, want 1", r.Matches)
	}
	if r.Processed != 2 {
		t.Fatalf("processed = %v, want 2", r.Processed)
	}
}

func TestPatternSearchScansAllBytes(t *testing.T) {
	q := NewPatternSearch(Config{}, []byte("NEEDLE"))
	text := bytes.Repeat([]byte{'q'}, 500)
	_, scanned := q.search(text)
	if scanned != 500 {
		t.Fatalf("scanned = %d, want full payload charge", scanned)
	}
}

func TestTopKRanking(t *testing.T) {
	q := NewTopK(Config{}, 2)
	q.Process(mkBatch(
		tcp(1, 100, 5, 80, 1000),
		tcp(1, 200, 5, 80, 500),
		tcp(1, 300, 5, 80, 2500),
		tcp(1, 100, 5, 80, 1000),
	), 1)
	res, _ := q.Flush()
	r := res.(topKResult)
	if len(r.List) != 2 {
		t.Fatalf("list length = %d", len(r.List))
	}
	if r.List[0].IP != 300 || r.List[1].IP != 100 {
		t.Fatalf("ranking wrong: %+v", r.List)
	}
	if r.List[1].Bytes != 2000 {
		t.Fatalf("bytes for ip 100 = %v, want 2000", r.List[1].Bytes)
	}
}

func TestTopKErrorZeroWhenIdentical(t *testing.T) {
	q := NewTopK(Config{}, 3)
	q.Process(mkBatch(
		tcp(1, 100, 5, 80, 1000),
		tcp(1, 200, 5, 80, 900),
		tcp(1, 300, 5, 80, 800),
		tcp(1, 400, 5, 80, 100),
	), 1)
	res, _ := q.Flush()
	if e := q.Error(res, res); e != 0 {
		t.Fatalf("self-error = %v", e)
	}
}

func TestTopKMisrankedPairs(t *testing.T) {
	q := NewTopK(Config{}, 2)
	ref := topKResult{All: map[uint32]float64{1: 100, 2: 90, 3: 80, 4: 10}}
	// Sampled run reports {1, 4}: destination 4 (true 10) beats nothing;
	// 2 (90) and 3 (80) both outrank 4 -> 2 misranked pairs.
	got := topKResult{List: []topKEntry{{IP: 1}, {IP: 4}}}
	if n := q.misrankedPairs(got, ref); n != 2 {
		t.Fatalf("misranked = %d, want 2", n)
	}
	if e := q.Error(got, ref); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("normalized error = %v, want 2/4", e)
	}
}

func TestAutofocusReportsHeavyCluster(t *testing.T) {
	q := NewAutofocus(Config{}, 0.1)
	// One /24 with dominant traffic, background spread wide.
	var pkts []pkt.Packet
	heavy := pkt.IPv4(147, 83, 9, 0)
	for i := 0; i < 50; i++ {
		// Spread across the /24 so no single host crosses the threshold
		// but the subnet as a whole does.
		pkts = append(pkts, tcp(1, heavy|uint32(i%50), 5, 80, 1000))
	}
	for i := 0; i < 50; i++ {
		pkts = append(pkts, tcp(1, pkt.IPv4(10, byte(i), byte(i), byte(i)), 5, 80, 10))
	}
	q.Process(mkBatch(pkts...), 1)
	res, _ := q.Flush()
	r := res.(autofocusResult)
	found := false
	for _, c := range r.Clusters {
		if c.Len == 24 && c.Prefix == heavy {
			found = true
		}
	}
	if !found {
		t.Fatalf("heavy /24 not reported: %+v", r.Clusters)
	}
}

func TestAutofocusResidualSubtraction(t *testing.T) {
	q := NewAutofocus(Config{}, 0.3)
	// A single /32 carries 60% of traffic; its /24 parent carries no
	// residual beyond it and must not be double reported.
	var pkts []pkt.Packet
	host := pkt.IPv4(147, 83, 9, 7)
	for i := 0; i < 60; i++ {
		pkts = append(pkts, tcp(1, host, 5, 80, 100))
	}
	for i := 0; i < 40; i++ {
		pkts = append(pkts, tcp(1, pkt.IPv4(10, byte(i), 0, byte(i)), 5, 80, 100))
	}
	q.Process(mkBatch(pkts...), 1)
	res, _ := q.Flush()
	r := res.(autofocusResult)
	for _, c := range r.Clusters {
		if c.Len == 24 && c.Prefix == (host&0xffffff00) {
			t.Fatalf("parent /24 reported despite no residual: %+v", r.Clusters)
		}
	}
	if len(r.Clusters) == 0 || r.Clusters[0].Prefix != host || r.Clusters[0].Len != 32 {
		t.Fatalf("host cluster missing: %+v", r.Clusters)
	}
}

func TestAutofocusErrorJaccard(t *testing.T) {
	q := NewAutofocus(Config{}, 0)
	a := autofocusResult{Clusters: []cluster{{Prefix: 1, Len: 24}, {Prefix: 2, Len: 24}}}
	b := autofocusResult{Clusters: []cluster{{Prefix: 1, Len: 24}}}
	if e := q.Error(a, a); e != 0 {
		t.Fatalf("identical error = %v", e)
	}
	if e := q.Error(b, a); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("half-overlap error = %v, want 0.5", e)
	}
}

func TestSuperSourcesFindsScanner(t *testing.T) {
	q := NewSuperSources(Config{}, 3)
	var pkts []pkt.Packet
	scanner := pkt.IPv4(203, 0, 113, 1)
	for i := 0; i < 300; i++ {
		pkts = append(pkts, tcp(scanner, uint32(i)*2654435761, 5, 80, 40))
	}
	for i := 0; i < 50; i++ {
		pkts = append(pkts, tcp(pkt.IPv4(10, 0, 0, byte(i)), pkt.IPv4(147, 83, 1, 1), 5, 80, 100))
	}
	q.Process(mkBatch(pkts...), 1)
	res, _ := q.Flush()
	r := res.(superSourcesResult)
	if len(r.Top) == 0 || r.Top[0].IP != scanner {
		t.Fatalf("scanner not ranked first: %+v", r.Top)
	}
	if math.Abs(r.Top[0].FanOut-300)/300 > 0.1 {
		t.Fatalf("fan-out estimate %v, want ~300", r.Top[0].FanOut)
	}
}

func TestSuperSourcesErrorMissingSource(t *testing.T) {
	q := NewSuperSources(Config{}, 2)
	ref := superSourcesResult{
		Top: []superSource{{IP: 1, FanOut: 100}, {IP: 2, FanOut: 50}},
		All: map[uint32]float64{1: 100, 2: 50},
	}
	got := superSourcesResult{All: map[uint32]float64{1: 100}}
	// Source 1 exact (err 0), source 2 missing (err 1) -> avg 0.5.
	if e := q.Error(got, ref); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("error = %v, want 0.5", e)
	}
}

func p2pBatch(sig []byte, dport uint16) *pkt.Batch {
	pay := make([]byte, 100)
	copy(pay, sig)
	return mkBatch(pkt.Packet{
		SrcIP: 1, DstIP: 2, SrcPort: 5000, DstPort: dport,
		Proto: pkt.ProtoTCP, Size: 140, Payload: pay,
	})
}

func TestP2PDetectorSignature(t *testing.T) {
	q := NewP2PDetector(Config{})
	q.Process(p2pBatch(trace.SigBitTorrent, 50000), 1) // non-canonical port
	res, _ := q.Flush()
	r := res.(p2pResult)
	if len(r.Detected) != 1 || r.Count != 1 {
		t.Fatalf("signature flow not detected: %+v", r)
	}
}

func TestP2PDetectorIgnoresCleanFlow(t *testing.T) {
	q := NewP2PDetector(Config{})
	pay := bytes.Repeat([]byte{'a'}, 100)
	q.Process(mkBatch(pkt.Packet{SrcIP: 1, DstIP: 2, SrcPort: 5, DstPort: 80, Proto: pkt.ProtoTCP, Size: 140, Payload: pay}), 1)
	res, _ := q.Flush()
	if r := res.(p2pResult); len(r.Detected) != 0 {
		t.Fatalf("clean flow detected as P2P: %+v", r)
	}
}

func TestP2PDetectorStopsScanningAfterDecision(t *testing.T) {
	q := NewP2PDetector(Config{})
	pay := bytes.Repeat([]byte{'a'}, 100)
	mk := func() *pkt.Batch {
		return mkBatch(pkt.Packet{SrcIP: 1, DstIP: 2, SrcPort: 5, DstPort: 80, Proto: pkt.ProtoTCP, Size: 140, Payload: append([]byte{}, pay...)})
	}
	q.Process(mk(), 1)
	q.Process(mk(), 1)
	ops := q.Process(mk(), 1) // third packet: flow decided, no scan
	if ops.Bytes != 0 {
		t.Fatalf("decided flow still scanned: %+v", ops)
	}
}

func TestP2PDetectorCustomShedding(t *testing.T) {
	q := NewP2PDetector(Config{Seed: 3})
	q.ShedTo(0)
	// With zero inspection every canonical-port flow is still caught by
	// the port heuristic, at zero byte cost.
	ops := q.Process(p2pBatch(trace.SigBitTorrent, 6881), 1)
	if ops.Bytes != 0 {
		t.Fatalf("shed flow still scanned payload: %+v", ops)
	}
	res, _ := q.Flush()
	if r := res.(p2pResult); len(r.Detected) != 1 {
		t.Fatalf("port heuristic missed canonical flow: %+v", r)
	}
	// But ephemeral-port P2P flows are lost without payload inspection.
	q.ShedTo(0)
	q.Process(p2pBatch(trace.SigGnutella, 43210), 1)
	res, _ = q.Flush()
	if r := res.(p2pResult); len(r.Detected) != 0 {
		t.Fatalf("port heuristic should miss ephemeral flow: %+v", r)
	}
}

func TestP2PDetectorShedToClamps(t *testing.T) {
	q := NewP2PDetector(Config{})
	q.ShedTo(5)
	if q.inspectFrac != 1 {
		t.Fatal("ShedTo did not clamp high")
	}
	q.ShedTo(-1)
	if q.inspectFrac != 0 {
		t.Fatal("ShedTo did not clamp low")
	}
}

func TestP2PErrorMetric(t *testing.T) {
	q := NewP2PDetector(Config{})
	p1 := tcp(1, 2, 3, 80, 0)
	p2 := tcp(1, 2, 4, 80, 0)
	k1 := p1.FlowKey()
	k2 := p2.FlowKey()
	ref := p2pResult{Detected: map[pkt.FlowKey]bool{k1: true, k2: true}}
	got := p2pResult{Detected: map[pkt.FlowKey]bool{k1: true}}
	if e := q.Error(got, ref); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("error = %v, want 0.5", e)
	}
}

func TestStandardAndFullSets(t *testing.T) {
	std := StandardSet(Config{})
	if len(std) != 7 {
		t.Fatalf("standard set size = %d", len(std))
	}
	full := FullSet(Config{})
	if len(full) != 10 {
		t.Fatalf("full set size = %d", len(full))
	}
	names := map[string]bool{}
	for _, q := range full {
		if names[q.Name()] {
			t.Fatalf("duplicate query %q", q.Name())
		}
		names[q.Name()] = true
		if q.MinRate() <= 0 || q.MinRate() > 1 {
			t.Errorf("%s min rate out of range: %v", q.Name(), q.MinRate())
		}
		if q.Interval() != time.Second {
			t.Errorf("%s default interval = %v", q.Name(), q.Interval())
		}
	}
}

func TestAllQueriesSelfErrorZero(t *testing.T) {
	// Processing identical traffic twice must give zero error for every
	// query: the accuracy metrics are grounded at equality.
	g := trace.NewGenerator(trace.Config{Seed: 2, Duration: time.Second, PacketsPerSec: 8000, Payload: true})
	batches := trace.Record(g)
	run := func() map[string]Result {
		out := map[string]Result{}
		for _, q := range FullSet(Config{Seed: 5}) {
			for i := range batches {
				q.Process(&batches[i], 1)
			}
			res, _ := q.Flush()
			out[q.Name()] = res
		}
		return out
	}
	a, b := run(), run()
	for _, q := range FullSet(Config{Seed: 5}) {
		if e := q.Error(a[q.Name()], b[q.Name()]); e != 0 {
			t.Errorf("%s self-error = %v, want 0", q.Name(), e)
		}
	}
}

func TestResetClearsEveryQuery(t *testing.T) {
	g := trace.NewGenerator(trace.Config{Seed: 4, Duration: time.Second, PacketsPerSec: 5000, Payload: true})
	batches := trace.Record(g)
	for _, q := range FullSet(Config{Seed: 5}) {
		for i := range batches {
			q.Process(&batches[i], 1)
		}
		q.Reset()
		resEmpty, _ := q.Flush()
		q2 := cloneByName(q.Name())
		resFresh, _ := q2.Flush()
		if e := q.Error(resEmpty, resFresh); e != 0 {
			t.Errorf("%s state survived Reset (err=%v)", q.Name(), e)
		}
	}
}

func cloneByName(name string) Query {
	for _, q := range FullSet(Config{Seed: 5}) {
		if q.Name() == name {
			return q
		}
	}
	return nil
}

func BenchmarkFullSetProcess(b *testing.B) {
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: time.Hour, PacketsPerSec: 25000, Payload: true})
	batch, _ := g.NextBatch()
	qs := FullSet(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			q.Process(&batch, 1)
		}
	}
}

// engineBins is what the engine hands a query of method m at rate: each
// bin with its flow index, read below rate 1 through the selection of
// the query's own sampler (a custom shedder takes the whole bin).
func engineBins(full []pkt.Batch, m sampling.Method, rate float64) []pkt.Batch {
	ps, fs := sampling.NewPacketSampler(1), sampling.NewFlowSampler(1)
	out := make([]pkt.Batch, len(full))
	for i := range full {
		b := pkt.Batch{Start: full[i].Start, Bin: full[i].Bin, Pkts: full[i].Pkts, Flows: pkt.NewFlowIndex(1)}
		b.Flows.Build(b.Pkts)
		if rate < 1 && (m == sampling.Packet || m == sampling.Flow) {
			if m == sampling.Packet {
				b.Sel = ps.SelectInto(nil, len(b.Pkts), rate)
			} else {
				b.Sel = fs.SelectInto(nil, b.Flows, rate)
			}
			if len(b.Sel) == 0 {
				b.Pkts, b.Sel = nil, nil // a nil Sel reads as every packet
			}
		}
		out[i] = b
	}
	return out
}

// benchShapes are the traffic BenchmarkQueryProcess runs on: one second
// of CESCA-II-shaped payload traffic, the same bins with every packet
// its own 5-tuple (source addresses counting up, as a spoofing tool
// emits them: the flow index's worst case) and with one 5-tuple.
func benchShapes() []struct {
	name string
	bins []pkt.Batch
} {
	generated := trace.Record(trace.NewGenerator(trace.CESCA2(1, time.Second, 1)))
	spoofed, oneFlow := make([]pkt.Batch, len(generated)), make([]pkt.Batch, len(generated))
	n := uint32(0)
	for i, b := range generated {
		spoofed[i], oneFlow[i] = b, b
		spoofed[i].Pkts, oneFlow[i].Pkts = slices.Clone(b.Pkts), slices.Clone(b.Pkts)
		for j := range b.Pkts {
			spoofed[i].Pkts[j].SrcIP = 0x0a000000 + n
			n++
			p := &oneFlow[i].Pkts[j]
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto = 1, 2, 3, 4, pkt.ProtoTCP
		}
	}
	return []struct {
		name string
		bins []pkt.Batch
	}{{"generated", generated}, {"spoofed", spoofed}, {"one-flow", oneFlow}}
}

// BenchmarkQueryProcess times each query's Process alone over one
// measurement interval (ten bins, then a flush outside the timer, so
// every pass pays the interval's real mix of inserts and hits), in the
// shape the engine hands it (engineBins): at rate 1 the indexed bin, at
// rate0.5 the bin through the selection of the query's own sampling
// method, or for the custom-shedding detector the whole bin after
// ShedTo(0.5). Sub-benchmarks are query/rate/traffic (benchShapes).
func BenchmarkQueryProcess(b *testing.B) {
	shapes := benchShapes()
	for qi, q := range FullSet(Config{Seed: 1}) {
		for _, rate := range []float64{1, 0.5} {
			for _, shape := range shapes {
				batches := engineBins(shape.bins, q.Method(), rate)
				b.Run(fmt.Sprintf("%s/rate%v/%s", q.Name(), rate, shape.name), func(b *testing.B) {
					q := FullSet(Config{Seed: 1})[qi]
					if cs, ok := q.(interface{ ShedTo(float64) }); ok {
						cs.ShedTo(rate)
					}
					pkts := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						bt := &batches[i%len(batches)]
						q.Process(bt, rate)
						pkts += bt.Packets()
						if i%len(batches) == len(batches)-1 {
							b.StopTimer()
							q.Flush()
							b.StartTimer()
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pkts, 1)), "ns/pkt")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------
// Allocation-regression guards (the PR 5 analogue of the PR 4
// extraction guards): the steady-state per-batch path of every query
// must be allocation-free, and the recycling interval rotation must
// cost at most the one interface box its Result requires.

// allocBatch generates a realistic payload-bearing batch for the
// steady-state guards.
func allocBatch(t testing.TB) *pkt.Batch {
	t.Helper()
	g := trace.NewGenerator(trace.Config{
		Seed: 9, Duration: 2 * time.Second, PacketsPerSec: 20000,
		Payload: true, P2PFrac: 0.2, ScanFrac: 0.05,
	})
	b, ok := g.NextBatch()
	if !ok || len(b.Pkts) == 0 {
		t.Fatal("empty benchmark batch")
	}
	return &b
}

func TestQueryProcessZeroAllocSteadyState(t *testing.T) {
	b := allocBatch(t)
	for _, q := range FullSet(Config{Seed: 1}) {
		q := q
		// Warm up: one full interval cycle populates the tables, the
		// pools and any scratch at their steady-state sizes, and a second
		// Process re-fills the cleared tables.
		q.Process(b, 1)
		var prev Result
		if rec, ok := q.(ResultRecycler); ok {
			prev, _ = rec.FlushInto(nil)
			_ = prev
		} else {
			q.Flush()
		}
		q.Process(b, 1)
		allocs := testing.AllocsPerRun(10, func() {
			q.Process(b, 1)
		})
		if allocs != 0 {
			t.Errorf("%s: Process steady-state allocations = %v, want 0", q.Name(), allocs)
		}
	}
}

func TestQueryFlushIntoRecyclesStorage(t *testing.T) {
	b := allocBatch(t)
	for _, q := range FullSet(Config{Seed: 2}) {
		rec, ok := q.(ResultRecycler)
		if !ok {
			continue
		}
		// Warm up two result generations so the ping-pong storage exists.
		q.Process(b, 1)
		prev, _ := rec.FlushInto(nil)
		q.Process(b, 1)
		prev, _ = rec.FlushInto(prev)
		// Steady state: one interval rotation may cost only the interface
		// box of the returned Result (its maps and slices are recycled).
		allocs := testing.AllocsPerRun(10, func() {
			q.Process(b, 1)
			prev, _ = rec.FlushInto(prev)
		})
		if allocs > 1 {
			t.Errorf("%s: FlushInto interval rotation allocations = %v, want <= 1", q.Name(), allocs)
		}
	}
}

// TestFlushIntoMatchesFlush pins the recycling contract: for the same
// traffic, FlushInto must report exactly the values Flush does.
func TestFlushIntoMatchesFlush(t *testing.T) {
	b := allocBatch(t)
	mk := func(seed uint64) []Query { return FullSet(Config{Seed: seed}) }
	plain := mk(3)
	recyc := mk(3)
	var prevs []Result
	for round := 0; round < 3; round++ {
		for i := range plain {
			plain[i].Process(b, 1)
			recyc[i].Process(b, 1)
		}
		if round == 0 {
			prevs = make([]Result, len(plain))
		}
		for i := range plain {
			want, wops := plain[i].Flush()
			rec, ok := recyc[i].(ResultRecycler)
			if !ok {
				got, gops := recyc[i].Flush()
				if !resultsEqual(got, want) || gops != wops {
					t.Fatalf("%s round %d: Flush diverged", plain[i].Name(), round)
				}
				continue
			}
			got, gops := rec.FlushInto(prevs[i])
			prevs[i] = got
			if gops != wops {
				t.Fatalf("%s round %d: ops diverged: %+v vs %+v", plain[i].Name(), round, gops, wops)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("%s round %d: FlushInto result diverged from Flush", plain[i].Name(), round)
			}
		}
	}
}

// resultsEqual compares two query results structurally; map iteration
// order and backing storage are irrelevant by construction.
func resultsEqual(a, b Result) bool {
	return reflect.DeepEqual(a, b)
}
