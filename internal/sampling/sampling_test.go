package sampling

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/trace"
)

func genPackets(n int) []pkt.Packet {
	out := make([]pkt.Packet, n)
	for i := range out {
		out[i] = pkt.Packet{
			SrcIP:   uint32(i % 97),
			DstIP:   uint32(i % 13),
			SrcPort: uint16(i % 31),
			DstPort: 80,
			Proto:   pkt.ProtoTCP,
			Size:    100,
		}
	}
	return out
}

func TestMethodStrings(t *testing.T) {
	cases := map[Method]string{none: "none", Packet: "packet", Flow: "flow", Custom: "custom", Method(9): "unknown"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestPacketSampleRateOne(t *testing.T) {
	s := NewPacketSampler(1)
	in := genPackets(100)
	out := s.SampleInto(nil, in, 1)
	if len(out) != 100 {
		t.Fatalf("rate 1 dropped packets: %d", len(out))
	}
}

func TestPacketSampleRateZero(t *testing.T) {
	s := NewPacketSampler(1)
	if out := s.SampleInto(nil, genPackets(100), 0); len(out) != 0 {
		t.Fatalf("rate 0 kept %d packets", len(out))
	}
}

func TestPacketSampleUnbiased(t *testing.T) {
	s := NewPacketSampler(2)
	in := genPackets(200000)
	out := s.SelectInto(nil, len(in), 0.3)
	frac := float64(len(out)) / float64(len(in))
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("sampled fraction = %v, want 0.3", frac)
	}
}

func TestPacketSampleDeterministic(t *testing.T) {
	a := NewPacketSampler(7)
	b := NewPacketSampler(7)
	in := genPackets(1000)
	oa := a.SelectInto(nil, len(in), 0.5)
	ob := b.SelectInto(nil, len(in), 0.5)
	if !slices.Equal(oa, ob) {
		t.Fatal("same seed sampled differently")
	}
}

// indexed returns the flow index of pkts, the form the engine hands a
// flow sampler.
func indexed(pkts []pkt.Packet) *pkt.FlowIndex {
	x := pkt.NewFlowIndex(1)
	x.Build(pkts)
	return x
}

// flowKeys returns the 5-tuples of pkts.
func flowKeys(pkts []pkt.Packet) []pkt.FlowKey {
	out := []pkt.FlowKey{}
	for i := range pkts {
		out = append(out, pkts[i].FlowKey())
	}
	return out
}

// selectedKeys returns the 5-tuples of the packets idx selects out of
// pkts.
func selectedKeys(pkts []pkt.Packet, idx []int32) []pkt.FlowKey {
	out := []pkt.FlowKey{}
	for _, i := range idx {
		out = append(out, pkts[i].FlowKey())
	}
	return out
}

// TestFlowSampleKeepsWholeFlows: on the indexed path and through
// SampleInto, a flow's packets are all kept or all dropped.
func TestFlowSampleKeepsWholeFlows(t *testing.T) {
	fs, copying := NewFlowSampler(3), NewFlowSampler(3)
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: 2 * time.Second, PacketsPerSec: 10000})
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		inBatch := map[pkt.FlowKey]int{}
		for _, k := range flowKeys(b.Pkts) {
			inBatch[k]++
		}
		for path, kept := range map[string][]pkt.FlowKey{
			"indexed":    selectedKeys(b.Pkts, fs.SelectInto(nil, indexed(b.Pkts), 0.5)),
			"SampleInto": flowKeys(copying.SampleInto(nil, b.Pkts, 0.5)),
		} {
			perFlow := map[pkt.FlowKey]int{}
			for _, k := range kept {
				perFlow[k]++
			}
			for k, n := range perFlow {
				if n != inBatch[k] {
					t.Fatalf("%s: flow %v sampled %d of its %d packets", path, k, n, inBatch[k])
				}
			}
		}
	}
}

func TestFlowSampleRateProportionOfFlows(t *testing.T) {
	fs := NewFlowSampler(5)
	// 10000 single-packet flows.
	in := make([]pkt.Packet, 10000)
	for i := range in {
		in[i] = pkt.Packet{SrcIP: uint32(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: pkt.ProtoTCP}
	}
	out := fs.SelectInto(nil, indexed(in), 0.25)
	frac := float64(len(out)) / float64(len(in))
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("flow-sampled fraction = %v, want 0.25", frac)
	}
}

func TestFlowSamplerIntervalRedraw(t *testing.T) {
	fs := NewFlowSampler(9)
	in := indexed(genPackets(5000))
	before := len(fs.SelectInto(nil, in, 0.5))
	fs.StartInterval()
	after := len(fs.SelectInto(nil, in, 0.5))
	// A redrawn hash function must make different selections: identical
	// counts for every flow set would be astronomically unlikely, but we
	// compare membership to be explicit.
	if before == after {
		a := fs.SelectInto(nil, in, 0.5)
		fs.StartInterval()
		if slices.Equal(a, fs.SelectInto(nil, in, 0.5)) {
			t.Fatal("hash function not redrawn across intervals")
		}
	}
}

func TestFlowSampleEdgeRates(t *testing.T) {
	fs := NewFlowSampler(11)
	in := indexed(genPackets(50))
	for _, rate := range []float64{1, 1.5, math.Inf(1)} {
		if got := fs.SelectInto(nil, in, rate); len(got) != 50 {
			t.Fatalf("rate %v kept %d of 50, must keep everything", rate, len(got))
		}
	}
	for _, rate := range []float64{0, -0.5, math.Inf(-1), math.NaN()} {
		if got := fs.SelectInto(nil, in, rate); len(got) != 0 {
			t.Fatalf("rate %v kept %d of 50, must drop everything", rate, len(got))
		}
	}
}

// TestSampleAliasesInputAtFullRate pins the ownership semantics the
// trace.Source contract documents: at rate >= 1 both samplers return
// the input slice itself (no copy), so callers must treat the result —
// and the input — as read-only. If this ever changes to a copy, the
// contract note on SampleInto and on trace.Source must change with it.
func TestSampleAliasesInputAtFullRate(t *testing.T) {
	in := genPackets(32)
	ps := NewPacketSampler(1)
	if got := ps.SampleInto(nil, in, 1); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatal("PacketSampler.SampleInto(rate>=1) must return the input slice unchanged")
	}
	fs := NewFlowSampler(2)
	if got := fs.SampleInto(nil, in, 1.5); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatal("FlowSampler.SampleInto(rate>=1) must return the input slice unchanged")
	}
	// Below full rate the result must NOT alias the input's backing
	// array, so a query mutating nothing can still re-slice freely.
	if got := ps.SampleInto(nil, in, 0.5); len(got) > 0 && &got[0] == &in[0] {
		t.Fatal("sampled output aliases the input slice head")
	}
}

// The two selection kernels alone, per 2500-packet bin at the rate where
// a conditional append would mispredict most.
func BenchmarkPacketSelect(b *testing.B) {
	ps := NewPacketSampler(1)
	var idx []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx = ps.SelectInto(idx, 2500, 0.49)
	}
}

// BenchmarkFlowSelect times the flow kernel on a bin whose index is
// built (the engine builds it once per bin, for every consumer):
// generated traffic, the same bin with every packet its own 5-tuple (the
// worst case: one hash per packet) and with a single 5-tuple.
func BenchmarkFlowSelect(b *testing.B) {
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: time.Second, PacketsPerSec: 25000})
	generated := trace.Record(g)[0].Pkts
	spoofed, oneFlow := slices.Clone(generated), slices.Clone(generated)
	for i := range generated {
		spoofed[i].SrcIP = 0x0a000000 + uint32(i)
		oneFlow[i].SrcIP, oneFlow[i].DstIP, oneFlow[i].SrcPort, oneFlow[i].DstPort, oneFlow[i].Proto = 1, 2, 3, 4, pkt.ProtoTCP
	}
	for _, in := range []struct {
		name string
		pkts []pkt.Packet
	}{{"generated", generated}, {"spoofed", spoofed}, {"one-flow", oneFlow}} {
		b.Run(in.name, func(b *testing.B) {
			fs, x := NewFlowSampler(1), indexed(in.pkts)
			var idx []int32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx = fs.SelectInto(idx, x, 0.49)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in.pkts)), "ns/pkt")
		})
	}
}

// kernelRates are the rates the selection kernels must agree with their
// float-compare references on: both ends, the smallest rate whose
// threshold is 1, the largest below 1, the neighbourhood of 0.5 and NaN.
var kernelRates = []float64{
	-0.5, 0, 1.0 / (1 << 60), 0.05, math.Nextafter(0.5, 0), 0.5,
	1 - 1.0/(1<<53), 1, 1.5, math.NaN(),
}

// TestPacketSelectMatchesFloatCompare pins PacketSampler.SelectInto to
// the loop it replaced — one Float64() < rate draw per packet — by
// selection and by RNG position afterwards, so every later bin's draws
// are the ones a never-optimized sampler would make.
func TestPacketSelectMatchesFloatCompare(t *testing.T) {
	const n = 5000
	for _, rate := range kernelRates {
		ps := NewPacketSampler(42)
		ref := hash.NewXorShift(42)
		var idx []int32
		for round := 0; round < 3; round++ {
			var want []int32
			switch {
			case rate >= 1:
				for i := 0; i < n; i++ {
					want = append(want, int32(i))
				}
			case rate <= 0:
			default:
				for i := 0; i < n; i++ {
					if ref.Float64() < rate {
						want = append(want, int32(i))
					}
				}
			}
			idx = ps.SelectInto(idx, n, rate)
			if !slices.Equal(idx, want) {
				t.Fatalf("rate %v round %d: selected %d indices, reference %d", rate, round, len(idx), len(want))
			}
			if ps.State() != ref.State() {
				t.Fatalf("rate %v round %d: RNG state diverged from the reference loop", rate, round)
			}
		}
	}
	// The extreme thresholds, draw by draw: 2⁻⁶⁰ keeps only a zero draw,
	// 1−2⁻⁵³ drops only the all-ones draw.
	if got := threshold(1.0 / (1 << 60)); got != 1 {
		t.Fatalf("threshold(2^-60) = %d, want 1", got)
	}
	if got := threshold(1 - 1.0/(1<<53)); got != 1<<53-1 {
		t.Fatalf("threshold(1-2^-53) = %d, want 2^53-1", got)
	}
}

// TestSelectPairMatchesSelectInto pins the interleaved pair kernel to two
// SelectInto calls by selection and by both RNG positions, for every
// pair of the edge rates — 0, 2⁻⁵³, 0.5, 1−2⁻⁵³, 1 and NaN — at several
// sizes, n = 0 included, over three rounds so a position drifted by one
// draw shows up in the next round's selection.
func TestSelectPairMatchesSelectInto(t *testing.T) {
	rates := []float64{0, 1.0 / (1 << 53), 0.5, 1 - 1.0/(1<<53), 1, math.NaN()}
	for _, n := range []int{0, 1, 7, 4096} {
		for _, ra := range rates {
			for _, rb := range rates {
				pa, pb := NewPacketSampler(11), NewPacketSampler(12)
				sa, sb := NewPacketSampler(11), NewPacketSampler(12)
				var ia, ib, wa, wb []int32
				for round := 0; round < 3; round++ {
					ia, ib = SelectPair(pa, pb, ia, ib, n, ra, rb)
					wa, wb = sa.SelectInto(wa, n, ra), sb.SelectInto(wb, n, rb)
					if !slices.Equal(ia, wa) || !slices.Equal(ib, wb) {
						t.Fatalf("n %d rates %v/%v round %d: pair selected %d/%d, SelectInto %d/%d",
							n, ra, rb, round, len(ia), len(ib), len(wa), len(wb))
					}
					if pa.State() != sa.State() || pb.State() != sb.State() {
						t.Fatalf("n %d rates %v/%v round %d: RNG positions diverged from SelectInto's", n, ra, rb, round)
					}
				}
			}
		}
	}
}

// TestFlowSelectMatchesUnitOfFlowKey pins FlowSampler.SelectInto to the
// byte path it replaced — H3.Unit over each packet's serialized FlowKey —
// under two interval hash functions: over the whole indexed bin, packet
// by packet (a one-packet bin's index) and through SampleInto's own
// index.
func TestFlowSelectMatchesUnitOfFlowKey(t *testing.T) {
	g := trace.NewGenerator(trace.Config{Seed: 3, Duration: time.Second, PacketsPerSec: 20000})
	pkts := trace.Record(g)[0].Pkts
	x, one := indexed(pkts), pkt.NewFlowIndex(2)
	fs, copying := NewFlowSampler(77), NewFlowSampler(77)
	ref := new(hash.H3)
	var idx []int32
	for interval := uint64(1); interval <= 2; interval++ {
		ref.Reseed(77 + interval*0x9e3779b97f4a7c15)
		for _, rate := range kernelRates {
			var want []int32
			for i := range pkts {
				k := pkts[i].FlowKey()
				keep := rate >= 1 || (rate > 0 && ref.Unit(k[:]) < rate)
				if keep {
					want = append(want, int32(i))
				}
				one.Build(pkts[i : i+1])
				if sel := fs.SelectInto(idx, one, rate); (len(sel) == 1) != keep {
					t.Fatalf("interval %d rate %v: packet %d alone selected = %v, byte path says %v", interval, rate, i, !keep, keep)
				}
			}
			idx = fs.SelectInto(idx, x, rate)
			if !slices.Equal(idx, want) {
				t.Fatalf("interval %d rate %v: selected %d indices, byte path %d", interval, rate, len(idx), len(want))
			}
			// A fresh destination each time: at a rate >= 1 SampleInto hands
			// back pkts itself.
			if got := copying.SampleInto(nil, pkts, rate); !slices.Equal(flowKeys(got), selectedKeys(pkts, want)) {
				t.Fatalf("interval %d rate %v: SampleInto copied %d packets, byte path selects %d", interval, rate, len(got), len(want))
			}
		}
		fs.StartInterval()
		copying.StartInterval()
	}
}

// TestSelectIntoZeroAlloc: with a warmed index and index slice neither
// kernel allocates, and neither does SampleInto's indexing of its own.
func TestSelectIntoZeroAlloc(t *testing.T) {
	pkts := genPackets(4096)
	ps, fs, copying := NewPacketSampler(5), NewFlowSampler(5), NewFlowSampler(5)
	x := indexed(pkts)
	pidx := ps.SelectInto(nil, len(pkts), 0.4)
	fidx := fs.SelectInto(nil, x, 0.4)
	fdst := copying.SampleInto(nil, pkts, 0.4)
	if allocs := testing.AllocsPerRun(20, func() {
		pidx = ps.SelectInto(pidx, len(pkts), 0.4)
		x.Build(pkts)
		fidx = fs.SelectInto(fidx, x, 0.4)
		fdst = copying.SampleInto(fdst, pkts, 0.4)
	}); allocs != 0 {
		t.Fatalf("SelectInto steady-state allocations = %v, want 0", allocs)
	}
}

// TestSampleIntoZeroAllocSteadyState is the PR 5 allocation guard for
// the samplers: with a warmed caller-owned scratch, SampleInto must not
// allocate.
func TestSampleIntoZeroAllocSteadyState(t *testing.T) {
	pkts := genPackets(4096)
	ps := NewPacketSampler(5)
	var dst []pkt.Packet
	dst = ps.SampleInto(dst, pkts, 0.4) // warm up the scratch
	allocs := testing.AllocsPerRun(20, func() {
		dst = ps.SampleInto(dst, pkts, 0.4)
	})
	if allocs != 0 {
		t.Fatalf("PacketSampler.SampleInto steady-state allocations = %v, want 0", allocs)
	}

	fs := NewFlowSampler(5)
	var fdst []pkt.Packet
	fdst = fs.SampleInto(fdst, pkts, 0.4)
	allocs = testing.AllocsPerRun(20, func() {
		fdst = fs.SampleInto(fdst, pkts, 0.4)
	})
	if allocs != 0 {
		t.Fatalf("FlowSampler.SampleInto steady-state allocations = %v, want 0", allocs)
	}
}

// TestSampleIntoMatchesSelectInto pins the equivalence contract: a
// SampleInto copy holds exactly the packets a twin sampler's SelectInto
// indexes — the view the engine reads through pkt.Batch.Sel — and both
// leave the RNG in the same position.
func TestSampleIntoMatchesSelectInto(t *testing.T) {
	pkts := genPackets(2048)
	same := func(t *testing.T, what string, got []pkt.Packet, idx []int32) {
		t.Helper()
		if len(got) != len(idx) {
			t.Fatalf("%s: lengths %d vs %d", what, len(got), len(idx))
		}
		for j, i := range idx {
			if got[j].FlowKey() != pkts[i].FlowKey() { // unique per packet in genPackets(2048)
				t.Fatalf("%s: packet %d differs", what, j)
			}
		}
	}
	for _, rate := range []float64{-0.1, 0, 0.25, 0.7, 1, 1.5} {
		a, b := NewPacketSampler(9), NewPacketSampler(9)
		var dst []pkt.Packet
		var idx []int32
		for round := 0; round < 3; round++ {
			idx = a.SelectInto(idx, len(pkts), rate)
			dst = b.SampleInto(dst, pkts, rate)
			same(t, fmt.Sprintf("packet rate %v round %d", rate, round), dst, idx)
			if a.State() != b.State() {
				t.Fatalf("packet rate %v round %d: RNG states diverged", rate, round)
			}
		}
		fa, fb := NewFlowSampler(9), NewFlowSampler(9)
		same(t, fmt.Sprintf("flow rate %v", rate), fb.SampleInto(dst, pkts, rate), fa.SelectInto(idx, indexed(pkts), rate))
	}
}
