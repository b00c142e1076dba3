package features

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// sketchTrace records a couple of seconds of generator batches so the
// sketch tests see real-ish key distributions, not toy rows.
func sketchTrace(t testing.TB) []pkt.Batch {
	g := trace.NewGenerator(trace.Config{Seed: 31, Duration: 2 * time.Second, PacketsPerSec: 6000})
	batches := trace.Record(g)
	if len(batches) == 0 {
		t.Fatal("generator produced no batches")
	}
	return batches
}

// indexed returns the flow index of pkts: the bin's index, as the
// engine builds it.
func indexed(pkts []pkt.Packet) *pkt.FlowIndex {
	x := pkt.NewFlowIndex(1)
	x.Build(pkts)
	return x
}

// inlineRun runs fn(0) … fn(n-1) in order on the calling goroutine.
func inlineRun(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// goRun runs fn(0) … fn(n-1) on n concurrent goroutines.
func goRun(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(i)
	}
	wg.Wait()
}

// TestChunkSketchEquivalence holds SketchFlows to its concurrency
// contract: it reads only the extractor's hash tables, so fills on one
// extractor, each into a sketch of its own, may run concurrently (the
// engine's front goroutine fills while the run goroutine folds the
// previous bin into the same extractor). workers fillers split the
// batches round-robin, inline or on as many goroutines, each into the
// batch's own sketch over the batch's own index; folded in batch order
// those sketches must give hash columns, vectors and interval estimates
// bit-identical to the same fills run in order.
func TestChunkSketchEquivalence(t *testing.T) {
	batches := sketchTrace(t)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, mode := range []string{"inline", "goroutines"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				run := inlineRun
				if mode == "goroutines" {
					run = goRun
				}
				seqExt, parExt := NewExtractor(9), NewExtractor(9)
				par := make([]*Sketch, len(batches))
				run(workers, func(w int) {
					for i := w; i < len(batches); i += workers {
						par[i] = NewSketch()
						parExt.SketchFlows(par[i], indexed(batches[i].Pkts))
					}
				})
				seqSk := NewSketch()
				seqExt.StartInterval()
				parExt.StartInterval()
				for i, b := range batches {
					seqExt.SketchFlows(seqSk, indexed(b.Pkts))
					parSk := par[i]
					if seqSk.Pkts() != parSk.Pkts() {
						t.Fatalf("concurrent fill saw %d pkts, sequential %d", parSk.Pkts(), seqSk.Pkts())
					}
					for a := range seqSk.cols {
						if !slices.Equal(seqSk.cols[a], parSk.cols[a]) {
							t.Fatalf("concurrent fill's %s hash column differs from the sequential fill's", pkt.Aggregate(a))
						}
					}
					np, nb := float64(b.Packets()), float64(b.Bytes())
					seqV := append(Vector(nil), seqExt.ExtractFromSketch(seqSk, np, nb)...)
					parV := append(Vector(nil), parExt.ExtractFromSketch(parSk, np, nb)...)
					if !reflect.DeepEqual(seqV, parV) {
						t.Fatalf("vectors diverged:\nseq %v\npar %v", seqV, parV)
					}
				}
				if seqExt.iv.after != parExt.iv.after {
					t.Fatal("interval estimates diverged between sequential and concurrent fills")
				}
			})
		}
	}
}

// TestSketchMatchesExtract pins the sketch/finish split to the one-shot
// Extract path: SketchInto + ExtractFromSketch on a second extractor
// with the same seed must reproduce Extract bit for bit, including the
// Ops accounting the engine charges from sk.Ops().
func TestSketchMatchesExtract(t *testing.T) {
	batches := sketchTrace(t)
	whole := NewExtractor(4)
	split := NewExtractor(4)
	sk := NewSketch()
	whole.StartInterval()
	split.StartInterval()
	for _, b := range batches {
		want := append(Vector(nil), whole.Extract(&b)...)
		split.SketchInto(sk, b.Pkts)
		split.Ops += sk.Ops()
		got := split.ExtractFromSketch(sk, float64(b.Packets()), float64(b.Bytes()))
		if !reflect.DeepEqual(want, append(Vector(nil), got...)) {
			t.Fatalf("split extraction diverged from Extract:\nwant %v\ngot  %v", want, got)
		}
	}
	if whole.Ops != split.Ops {
		t.Fatalf("Ops accounting diverged: Extract %d, sketch path %d", whole.Ops, split.Ops)
	}
}

// TestChunkSketchFillAllocFree proves a warmed SketchFlows fill, and
// the extraction that folds it, allocate nothing — the property that
// keeps a bin slot's fill inside the engine's zero-alloc steady state.
func TestChunkSketchFillAllocFree(t *testing.T) {
	batches := sketchTrace(t)
	ext := NewExtractor(2)
	dst, x := NewSketch(), indexed(batches[0].Pkts)
	ext.StartInterval()
	ext.SketchFlows(dst, x) // warm the hash columns
	allocs := testing.AllocsPerRun(20, func() {
		for _, b := range batches {
			x.Build(b.Pkts)
			ext.SketchFlows(dst, x)
			ext.ExtractFromSketch(dst, float64(b.Packets()), float64(b.Bytes()))
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed SketchFlows fill allocated %v times per run, want 0", allocs)
	}
}

// sameSketch fails the test unless got is want: the same packet and op
// counts, bitmaps equal field for field — words, per-component counts
// and live mask (both sides insert into cleared bitmaps, so even the
// bookkeeping must agree) — the same sealed estimates, each what its
// bitmap estimates, and, unless either side keeps none (a selection's
// sketch, the oracle's), the same hash columns.
func sameSketch(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	if got.Pkts() != want.Pkts() || got.Ops() != want.Ops() {
		t.Fatalf("%s: Pkts/Ops = %d/%d, want %d/%d", what, got.Pkts(), got.Ops(), want.Pkts(), want.Ops())
	}
	for a := range want.cols {
		if got.cols[a] != nil && want.cols[a] != nil && !slices.Equal(got.cols[a], want.cols[a]) {
			t.Fatalf("%s: hash column of %s differs", what, pkt.Aggregate(a))
		}
		if !reflect.DeepEqual(got.batch[a], want.batch[a]) {
			t.Fatalf("%s: bitmap of %s differs", what, pkt.Aggregate(a))
		}
		if e := got.batch[a].Estimate(); got.est[a] != want.est[a] || got.est[a] != e {
			t.Fatalf("%s: sealed estimate of %s = %v, want %v (its bitmap estimates %v)", what, pkt.Aggregate(a), got.est[a], want.est[a], e)
		}
	}
}

// halfOf is a stand-in for a packet sampler's selection out of n at a
// rate just under one half: ascending, irregular, deterministic.
func halfOf(n int) []int32 {
	rng := hash.NewXorShift(5)
	var idx []int32
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.49 {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// TestSketchSelectMatchesSketchOfSelection: gathering a selection out of
// a filled sketch's hash columns must produce exactly the sketch that
// hashing the selected packets would — the identity that lets the engine
// sketch its shed stream without a second extractor. The empty and the
// full selection are the edge cases.
func TestSketchSelectMatchesSketchOfSelection(t *testing.T) {
	ext := NewExtractor(6)
	full, got, want := NewSketch(), NewSketch(), NewSketch()
	for bi, b := range sketchTrace(t) {
		ext.SketchInto(full, b.Pkts)
		all := make([]int32, len(b.Pkts))
		for i := range all {
			all[i] = int32(i)
		}
		for name, idx := range map[string][]int32{"none": nil, "some": halfOf(len(b.Pkts)), "all": all} {
			picked := make([]pkt.Packet, len(idx))
			for j, i := range idx {
				picked[j] = b.Pkts[i]
			}
			ext.SketchInto(want, picked)
			full.SelectInto(got, idx)
			sameSketch(t, fmt.Sprintf("bin %d, %s", bi, name), got, want)
		}
	}
}

// TestSketchTruncateMatchesSketchOfPrefix: a DAG-drop bin keeps a prefix
// of the batch its slot's fill sketched; truncating that sketch must
// equal sketching the prefix afresh.
func TestSketchTruncateMatchesSketchOfPrefix(t *testing.T) {
	ext := NewExtractor(6)
	got, want := NewSketch(), NewSketch()
	for bi, b := range sketchTrace(t) {
		for _, n := range []int{0, 1, len(b.Pkts) / 2, len(b.Pkts)} {
			ext.SketchInto(got, b.Pkts)
			got.Truncate(n)
			ext.SketchInto(want, b.Pkts[:n])
			sameSketch(t, fmt.Sprintf("bin %d, prefix %d", bi, n), got, want)
		}
	}
}

// TestSketchSelectAllocFree: once warmed on the largest bin, the
// engine's per-bin sketch of the bin's index, its shed sketch (inserted
// straight from the bin's columns) and the DAG-drop truncation allocate
// nothing, on that bin and on a smaller one.
func TestSketchSelectAllocFree(t *testing.T) {
	small := sketchTrace(t)[0].Pkts
	large := benchBins()[1].pkts // spoofed: every packet its own flow
	ext := NewExtractor(2)
	x, sk, shed := pkt.NewFlowIndex(1), NewSketch(), NewSketch()
	smallIdx, largeIdx := halfOf(len(small)), halfOf(len(large))
	x.Build(large)
	ext.SketchFlows(sk, x)
	sk.SelectInto(shed, largeIdx)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, in := range []struct {
			pkts []pkt.Packet
			idx  []int32
		}{{large, largeIdx}, {small, smallIdx}} {
			x.Build(in.pkts)
			ext.SketchFlows(sk, x)
			sk.SelectInto(shed, in.idx)
			sk.Truncate(len(in.pkts) / 2)
			ext.SketchInto(sk, in.pkts)
		}
	}); allocs != 0 {
		t.Fatalf("warmed sketch, SelectInto and Truncate allocated %v times per run, want 0", allocs)
	}
}

// oracleSketch fills sk as the extractor did before the flow index:
// every packet's ten hashes, inserted in bulk into cleared bitmaps — the
// per-packet SketchFlows loop. It keeps no columns
// and no index; what it fills is what sameSketch compares.
func oracleSketch(e *Extractor, sk *Sketch, pkts []pkt.Packet) {
	for a := range sk.cols {
		sk.cols[a] = nil
		sk.batch[a].Reset()
		col := e.h3[a].AggHashes(nil, pkts, pkt.Aggregate(a))
		sk.batch[a].InsertMany(col)
	}
	sk.n = len(pkts)
	sk.seal()
}

// oracleRates are the shed rates the selections are drawn at: nothing,
// sparse, half, and all but the all-ones draw.
var oracleRates = []float64{0, 0.05, 0.5, 1 - 1.0/(1<<53)}

// checkSketchOracle holds every consumer of the bin's flow index in
// features to the per-packet oracle on one bin: SketchFlows over the
// bin's index and SketchInto over its own, SelectInto at oracleRates
// and, when every is set, Truncate at every prefix length (else at
// three).
func checkSketchOracle(t *testing.T, what string, pkts []pkt.Packet, every bool) {
	t.Helper()
	ext := NewExtractor(11)
	x := indexed(pkts)
	got, want, sel := NewSketch(), NewSketch(), NewSketch()
	oracleSketch(ext, want, pkts)
	ext.SketchInto(got, pkts)
	sameSketch(t, what+", SketchInto", got, want)
	ext.SketchFlows(got, x)
	sameSketch(t, what+", SketchFlows", got, want)
	for _, rate := range oracleRates {
		idx := sampling.NewPacketSampler(3).SelectInto(nil, len(pkts), rate)
		picked := make([]pkt.Packet, len(idx))
		for j, i := range idx {
			picked[j] = pkts[i]
		}
		oracleSketch(ext, want, picked)
		got.SelectInto(sel, idx)
		sameSketch(t, fmt.Sprintf("%s, SelectInto at %v", what, rate), sel, want)
	}
	prefixes := []int{0, len(pkts) / 3, len(pkts)}
	if every {
		prefixes = prefixes[:0]
		for n := 0; n <= len(pkts); n++ {
			prefixes = append(prefixes, n)
		}
	}
	for _, n := range prefixes {
		x.Build(pkts) // the previous Truncate shortened the bin's index
		ext.SketchFlows(got, x)
		got.Truncate(n)
		oracleSketch(ext, want, pkts[:n])
		sameSketch(t, fmt.Sprintf("%s, Truncate(%d)", what, n), got, want)
	}
}

// checkFlowConsumers holds the index's consumers outside features to
// their per-packet forms on one bin, at oracleRates: the flow sampler's
// selection against the same sampler deciding each packet alone, and
// flows, top-k and p2p-detector reading the bin's index through the
// whole bin, a packet selection and that flow selection against twins
// fed the same packets one per batch, without an index — by Ops, by
// flushed result and by flush Ops.
func checkFlowConsumers(t *testing.T, what string, pkts []pkt.Packet) {
	t.Helper()
	x, single := indexed(pkts), pkt.NewFlowIndex(2)
	for _, rate := range oracleRates {
		fsel := sampling.NewFlowSampler(5).SelectInto(nil, x, rate)
		alone := sampling.NewFlowSampler(5)
		var want []int32
		for i := range pkts {
			single.Build(pkts[i : i+1])
			if len(alone.SelectInto(nil, single, rate)) == 1 {
				want = append(want, int32(i))
			}
		}
		if !slices.Equal(fsel, want) {
			t.Fatalf("%s, flow selection at %v: %d packets, %d deciding each alone", what, rate, len(fsel), len(want))
		}
		views := []struct {
			name string
			sel  []int32
		}{{"whole bin", nil}, {"packet selection", sampling.NewPacketSampler(3).SelectInto(nil, len(pkts), rate)}, {"flow selection", fsel}}
		for vi, v := range views {
			b := pkt.Batch{Pkts: pkts, Flows: x, Sel: v.sel}
			if vi > 0 && len(v.sel) == 0 {
				b.Pkts, b.Sel = nil, nil // an empty selection: a nil Sel reads as every packet
			}
			for qi := range 3 {
				q, twin := flowQuery(qi), flowQuery(qi)
				ops := q.Process(&b, rate)
				var twinOps queries.Ops
				for j := range b.Packets() {
					one := pkt.Batch{Pkts: []pkt.Packet{*b.At(j)}}
					twinOps = addOps(twinOps, twin.Process(&one, rate))
				}
				res, fops := q.Flush()
				twinRes, twinFops := twin.Flush()
				if ops != twinOps || fops != twinFops || !reflect.DeepEqual(res, twinRes) {
					t.Fatalf("%s, %s through the %s at %v: ops %+v / flush %+v, per packet %+v / %+v", what, q.Name(), v.name, rate, ops, fops, twinOps, twinFops)
				}
			}
		}
	}
}

// flowQuery returns a fresh instance of the i-th query that keeps
// per-flow state: flows, top-k and p2p-detector, the last shedding to
// half its flows so both of its classification paths run.
func flowQuery(i int) queries.Query {
	cfg := queries.Config{Seed: 9}
	switch i {
	case 0:
		return queries.NewFlows(cfg)
	case 1:
		return queries.NewTopK(cfg, 3)
	}
	q := queries.NewP2PDetector(cfg)
	q.ShedTo(0.5)
	return q
}

// nearKeys is a bin of 5-tuples that differ from each other only in the
// protocol or only in one port, interleaved and repeated.
func nearKeys() []pkt.Packet {
	base := pkt.Packet{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1024, DstPort: 80, Proto: pkt.ProtoTCP, Size: 60}
	var out []pkt.Packet
	for rep := 0; rep < 3; rep++ {
		for _, proto := range []uint8{pkt.ProtoTCP, pkt.ProtoUDP, 1 /* ICMP */, 0} {
			p := base
			p.Proto = proto
			out = append(out, p)
			p.SrcPort++
			out = append(out, p)
			p.SrcPort--
			p.DstPort++
			out = append(out, p)
		}
	}
	return out
}

// TestSketchMatchesPerPacketOracle: hashing and inserting each distinct
// 5-tuple once is bit for bit inserting every packet, for every consumer
// of the bin's index in features, on generated CESCA-II bins, a bin
// where every packet is its own flow, a one-flow bin, an empty bin and
// keys a field apart; and on the last four, the flow sampler and the
// per-flow queries read the index as they would each packet alone.
func TestSketchMatchesPerPacketOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		batches := trace.Record(trace.NewGenerator(trace.CESCA2(seed, 500*time.Millisecond, 1)))
		for bi, b := range batches {
			checkSketchOracle(t, fmt.Sprintf("CESCA-II seed %d bin %d", seed, bi), b.Pkts, false)
		}
	}
	bins := benchBins()
	for _, in := range bins {
		checkSketchOracle(t, in.name, in.pkts, false)
		checkSketchOracle(t, "short "+in.name, in.pkts[:40], true)
		checkFlowConsumers(t, in.name, in.pkts)
	}
	checkSketchOracle(t, "empty", nil, true)
	checkSketchOracle(t, "near keys", nearKeys(), true)
	checkFlowConsumers(t, "empty", nil)
	checkFlowConsumers(t, "near keys", nearKeys())
}

// FuzzSketchFlowIndex holds every consumer of a bin's flow index to its
// per-packet form (checkSketchOracle, checkFlowConsumers) on a bin read
// from data: one packet per byte, each bit picking one of two values for
// a 5-tuple field, so bins are full of repeats and of keys a field
// apart, and the top bit a P2P signature in the payload and a larger
// size.
func FuzzSketchFlowIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts := make([]pkt.Packet, len(data))
		for i, b := range data {
			pkts[i] = pkt.Packet{
				SrcIP: 0x0a000000 | uint32(b&3), DstIP: 0xc0a80100 | uint32(b>>2&1),
				SrcPort: 1024 + uint16(b>>3&1), DstPort: 80 + uint16(b>>4&1)<<8,
				Proto: []uint8{pkt.ProtoTCP, pkt.ProtoUDP, 1 /* ICMP */, 0}[b>>5&3], Size: 60 + int(b>>7),
			}
			if b>>7 == 1 {
				pkts[i].Payload = trace.SigBitTorrent
			}
		}
		checkSketchOracle(t, "fuzzed bin", pkts, len(pkts) <= 64)
		checkFlowConsumers(t, "fuzzed bin", pkts)
	})
}

// benchBins are the bins the sketch benchmarks run on: a generated bin
// (3,058 packets, 461 flows), and the same bin with every packet its own
// 5-tuple (source addresses counting up, as a spoofing tool emits them:
// the flow index's worst case) and with a single 5-tuple (its best).
func benchBins() []struct {
	name string
	pkts []pkt.Packet
} {
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: time.Second, PacketsPerSec: 25000})
	generated := trace.Record(g)[0].Pkts
	spoofed, oneFlow := slices.Clone(generated), slices.Clone(generated)
	for i := range generated {
		spoofed[i].SrcIP = 0x0a000000 + uint32(i)
		p := &oneFlow[i]
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto = oneFlow[0].SrcIP, oneFlow[0].DstIP, oneFlow[0].SrcPort, oneFlow[0].DstPort, oneFlow[0].Proto
	}
	return []struct {
		name string
		pkts []pkt.Packet
	}{{"generated", generated}, {"spoofed", spoofed}, {"one-flow", oneFlow}}
}

// BenchmarkShedSketch prices the shed path's sketch per bin at a rate
// near one half: inserting the selection straight from the bin's hash
// columns against hashing the gathered packets again.
func BenchmarkShedSketch(b *testing.B) {
	for _, in := range benchBins() {
		ext := NewExtractor(2)
		full, shed := NewSketch(), NewSketch()
		ext.SketchInto(full, in.pkts)
		idx := halfOf(len(in.pkts))
		b.Run(in.name+"/select", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				full.SelectInto(shed, idx)
			}
		})
		picked := make([]pkt.Packet, len(idx))
		for j, i := range idx {
			picked[j] = in.pkts[i]
		}
		b.Run(in.name+"/rehash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ext.SketchInto(shed, picked)
			}
		})
	}
}

// addOps is the element-wise sum of two operation counts.
func addOps(a, b queries.Ops) queries.Ops {
	return queries.Ops{
		Packets: a.Packets + b.Packets,
		Bytes:   a.Bytes + b.Bytes,
		Lookups: a.Lookups + b.Lookups,
		Inserts: a.Inserts + b.Inserts,
		Sorts:   a.Sorts + b.Sorts,
		Flushes: a.Flushes + b.Flushes,
	}
}
