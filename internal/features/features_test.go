package features

import (
	"math"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/trace"
)

func mkBatch(pkts ...pkt.Packet) *pkt.Batch {
	return &pkt.Batch{Bin: 100 * time.Millisecond, Pkts: pkts}
}

func p(src, dst uint32, sp, dp uint16, size int) pkt.Packet {
	return pkt.Packet{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: pkt.ProtoTCP, Size: size}
}

func TestVectorLength(t *testing.T) {
	if NumFeatures != 42 {
		t.Fatalf("NumFeatures = %d, want 42 (thesis count)", NumFeatures)
	}
	e := NewExtractor(1)
	v := e.Extract(mkBatch(p(1, 2, 3, 4, 100)))
	if len(v) != NumFeatures {
		t.Fatalf("vector length = %d", len(v))
	}
}

func TestNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := range NumFeatures {
		n := Name(i)
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	if Name(IdxPackets) != "packets" || Name(idxBytes) != "bytes" {
		t.Fatalf("scalar names wrong: %q %q", Name(0), Name(1))
	}
	if got := Name(idx(pkt.Agg5Tuple, kindNew)); got != "new 5-tuple" {
		t.Fatalf("Name(new 5-tuple) = %q", got)
	}
}

func TestPacketsAndBytes(t *testing.T) {
	e := NewExtractor(1)
	v := e.Extract(mkBatch(p(1, 2, 3, 4, 100), p(1, 2, 3, 4, 200)))
	if v[IdxPackets] != 2 {
		t.Errorf("packets = %v", v[IdxPackets])
	}
	if v[idxBytes] != 300 {
		t.Errorf("bytes = %v", v[idxBytes])
	}
}

func TestUniqueCounts(t *testing.T) {
	e := NewExtractor(1)
	// Two packets from the same flow, one from a different source.
	v := e.Extract(mkBatch(
		p(10, 2, 5, 80, 100),
		p(10, 2, 5, 80, 100),
		p(11, 2, 6, 80, 100),
	))
	if got := v[idx(pkt.AggSrcIP, kindUnique)]; math.Abs(got-2) > 0.2 {
		t.Errorf("unique src-ip = %v, want ~2", got)
	}
	if got := v[idx(pkt.AggDstIP, kindUnique)]; math.Abs(got-1) > 0.2 {
		t.Errorf("unique dst-ip = %v, want ~1", got)
	}
	if got := v[idx(pkt.Agg5Tuple, kindUnique)]; math.Abs(got-2) > 0.2 {
		t.Errorf("unique 5-tuple = %v, want ~2", got)
	}
	if got := v[idx(pkt.Agg5Tuple, kindRepeated)]; math.Abs(got-1) > 0.2 {
		t.Errorf("repeated 5-tuple = %v, want ~1", got)
	}
}

func TestNewItemsAcrossBatches(t *testing.T) {
	e := NewExtractor(1)
	e.StartInterval()
	v1 := e.Extract(mkBatch(p(10, 2, 5, 80, 100), p(11, 2, 5, 80, 100)))
	if got := v1[idx(pkt.AggSrcIP, kindNew)]; math.Abs(got-2) > 0.2 {
		t.Fatalf("first batch new src-ip = %v, want ~2", got)
	}
	// Second batch repeats one source and adds one more.
	v2 := e.Extract(mkBatch(p(10, 2, 5, 80, 100), p(12, 2, 5, 80, 100)))
	if got := v2[idx(pkt.AggSrcIP, kindNew)]; math.Abs(got-1) > 0.3 {
		t.Fatalf("second batch new src-ip = %v, want ~1", got)
	}
	if got := v2[idx(pkt.AggSrcIP, kindIntRepeated)]; math.Abs(got-1) > 0.3 {
		t.Fatalf("second batch int-repeated src-ip = %v, want ~1", got)
	}
}

func TestStartIntervalResetsNewCounts(t *testing.T) {
	e := NewExtractor(1)
	e.StartInterval()
	e.Extract(mkBatch(p(10, 2, 5, 80, 100)))
	v := e.Extract(mkBatch(p(10, 2, 5, 80, 100)))
	if got := v[idx(pkt.AggSrcIP, kindNew)]; got > 0.3 {
		t.Fatalf("repeat source counted as new: %v", got)
	}
	e.StartInterval()
	v = e.Extract(mkBatch(p(10, 2, 5, 80, 100)))
	if got := v[idx(pkt.AggSrcIP, kindNew)]; math.Abs(got-1) > 0.2 {
		t.Fatalf("after StartInterval new src-ip = %v, want ~1", got)
	}
}

func TestEmptyBatch(t *testing.T) {
	e := NewExtractor(1)
	v := e.Extract(mkBatch())
	for i, x := range v {
		if x != 0 {
			t.Fatalf("feature %s = %v for empty batch", Name(i), x)
		}
	}
}

func TestInvariantsOnGeneratedTraffic(t *testing.T) {
	g := trace.NewGenerator(trace.Config{Seed: 3, Duration: 2 * time.Second, PacketsPerSec: 5000})
	e := NewExtractor(7)
	e.StartInterval()
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		v := e.Extract(&b)
		npkts := v[IdxPackets]
		for a := 0; a < pkt.NumAggregates; a++ {
			agg := pkt.Aggregate(a)
			u, nw := v[idx(agg, kindUnique)], v[idx(agg, kindNew)]
			if u < 0 || nw < 0 {
				t.Fatalf("negative counter for %v", agg)
			}
			if u > npkts+0.5 {
				t.Fatalf("unique %v = %v exceeds packets %v", agg, u, npkts)
			}
			if nw > u+0.5 {
				t.Fatalf("new %v = %v exceeds unique %v", agg, nw, u)
			}
			if v[idx(agg, kindRepeated)] != npkts-u {
				t.Fatalf("repeated invariant broken for %v", agg)
			}
			if v[idx(agg, kindIntRepeated)] != npkts-nw {
				t.Fatalf("int-repeated invariant broken for %v", agg)
			}
		}
	}
}

func TestAccuracyAgainstExactCounts(t *testing.T) {
	// Compare bitmap estimates to exact distinct counts on real-ish
	// traffic; thesis dimensions the bitmaps for ~1% error, allow 5%.
	g := trace.NewGenerator(trace.Config{Seed: 5, Duration: time.Second, PacketsPerSec: 20000})
	e := NewExtractor(9)
	e.StartInterval()
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		v := e.Extract(&b)
		exact := map[pkt.FlowKey]bool{}
		srcs := map[uint32]bool{}
		for _, q := range b.Pkts {
			exact[q.FlowKey()] = true
			srcs[q.SrcIP] = true
		}
		got := v[idx(pkt.Agg5Tuple, kindUnique)]
		want := float64(len(exact))
		if want > 100 && math.Abs(got-want)/want > 0.05 {
			t.Fatalf("unique 5-tuple estimate %v vs exact %v", got, want)
		}
		gotS := v[idx(pkt.AggSrcIP, kindUnique)]
		wantS := float64(len(srcs))
		if wantS > 100 && math.Abs(gotS-wantS)/wantS > 0.05 {
			t.Fatalf("unique src-ip estimate %v vs exact %v", gotS, wantS)
		}
	}
}

func TestOpsCounting(t *testing.T) {
	e := NewExtractor(1)
	e.Extract(mkBatch(p(1, 2, 3, 4, 100), p(5, 6, 7, 8, 100)))
	if e.Ops != 2*pkt.NumAggregates {
		t.Fatalf("Ops = %d, want %d", e.Ops, 2*pkt.NumAggregates)
	}
}

// extractOracle is the pre-refactor extraction algorithm — serialize
// each aggregate key with AppendAggKey, hash the bytes, insert in
// per-packet order — kept as the equivalence oracle for the
// field-wise/flat-bitmap fast path.
func extractOracle(e *Extractor, b *pkt.Batch) Vector {
	v := make(Vector, NumFeatures)
	v[IdxPackets] = float64(b.Packets())
	v[idxBytes] = float64(b.Bytes())

	for a := range e.sk.batch { // the oracle leaves the columns and index unused
		e.sk.batch[a].Reset()
	}
	e.sk.n = b.Packets()
	var keyBuf []byte
	for i := range b.Pkts {
		p := &b.Pkts[i]
		for a := 0; a < pkt.NumAggregates; a++ {
			keyBuf = p.AppendAggKey(keyBuf[:0], pkt.Aggregate(a))
			e.sk.batch[a].Insert(hash.Mix64(e.h3[a].Hash(keyBuf)))
		}
	}
	e.sk.seal()

	return e.FinishSketchInto(v, e.sk, v[IdxPackets], v[idxBytes])
}

func TestExtractMatchesBytePathOracle(t *testing.T) {
	// The fast path must be bit-identical to the serialize-and-hash
	// oracle on real-ish traffic, across batch and interval boundaries.
	g := trace.NewGenerator(trace.Config{Seed: 21, Duration: 2 * time.Second, PacketsPerSec: 8000})
	fast := NewExtractor(5)
	oracle := NewExtractor(5)
	fast.StartInterval()
	oracle.StartInterval()
	bin := 0
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		if bin == 10 { // exercise an interval rotation mid-comparison
			fast.StartInterval()
			oracle.StartInterval()
		}
		got := fast.Extract(&b)
		want := extractOracle(oracle, &b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bin %d, feature %s: fast = %v, oracle = %v", bin, Name(i), got[i], want[i])
			}
		}
		bin++
	}
	if bin == 0 {
		t.Fatal("no batches generated")
	}
}

func TestExtractIntoReusesBuffer(t *testing.T) {
	g := trace.NewGenerator(trace.Config{Seed: 2, Duration: time.Second, PacketsPerSec: 2000})
	b1, _ := g.NextBatch()
	b2, _ := g.NextBatch()
	e := NewExtractor(1)
	e.StartInterval()
	v := make(Vector, 0, NumFeatures)
	v = e.ExtractInto(v, &b1)
	if len(v) != NumFeatures {
		t.Fatalf("vector length = %d", len(v))
	}
	w := e.ExtractInto(v, &b2)
	if &w[0] != &v[0] {
		t.Fatal("ExtractInto reallocated a buffer with sufficient capacity")
	}
	if w[IdxPackets] != float64(b2.Packets()) {
		t.Fatalf("packets = %v, want %v", w[IdxPackets], b2.Packets())
	}
}

func TestExtractZeroAllocSteadyState(t *testing.T) {
	g := trace.NewGenerator(trace.Config{Seed: 4, Duration: time.Second, PacketsPerSec: 10000})
	batch, _ := g.NextBatch()
	e := NewExtractor(1)
	e.StartInterval()
	e.Extract(&batch) // warm-up: grows nothing but populates caches
	allocs := testing.AllocsPerRun(20, func() {
		e.Extract(&batch)
	})
	if allocs != 0 {
		t.Fatalf("Extract steady-state allocations = %v, want 0", allocs)
	}
	src := NewExtractor(2)
	src.StartInterval()
	src.Extract(&batch)
	e.ExtractFromSketch(src.Sketch(), 10, 1000)
	allocs = testing.AllocsPerRun(20, func() {
		e.ExtractFromSketch(src.Sketch(), 10, 1000)
	})
	if allocs != 0 {
		t.Fatalf("ExtractFromSketch steady-state allocations = %v, want 0", allocs)
	}
}

// BenchmarkExtract prices a whole extraction per bin on the three
// shapes of benchBins.
func BenchmarkExtract(b *testing.B) {
	for _, in := range benchBins() {
		b.Run(in.name, func(b *testing.B) {
			batch := pkt.Batch{Bin: 100 * time.Millisecond, Pkts: in.pkts}
			e := NewExtractor(1)
			e.StartInterval()
			e.Extract(&batch) // grow the sketch to the bin
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Extract(&batch)
			}
		})
	}
}
