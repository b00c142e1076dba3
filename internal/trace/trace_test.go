package trace

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/pkt"
)

func shortCfg(seed uint64) Config {
	return Config{
		Seed:          seed,
		Duration:      3 * time.Second,
		PacketsPerSec: 5000,
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(shortCfg(1))
	b := NewGenerator(shortCfg(1))
	for {
		ba, oka := a.NextBatch()
		bb, okb := b.NextBatch()
		if oka != okb {
			t.Fatal("generators disagree on trace length")
		}
		if !oka {
			break
		}
		if len(ba.Pkts) != len(bb.Pkts) {
			t.Fatalf("batch sizes differ: %d vs %d", len(ba.Pkts), len(bb.Pkts))
		}
		for i := range ba.Pkts {
			pa, pb := ba.Pkts[i], bb.Pkts[i]
			if pa.Ts != pb.Ts || pa.SrcIP != pb.SrcIP || pa.DstIP != pb.DstIP ||
				pa.SrcPort != pb.SrcPort || pa.Size != pb.Size {
				t.Fatalf("packet %d differs", i)
			}
		}
	}
}

func TestGeneratorResetReproduces(t *testing.T) {
	g := NewGenerator(shortCfg(2))
	first, _ := g.NextBatch()
	for {
		if _, ok := g.NextBatch(); !ok {
			break
		}
	}
	g.Reset()
	again, ok := g.NextBatch()
	if !ok {
		t.Fatal("no batch after Reset")
	}
	if len(first.Pkts) != len(again.Pkts) {
		t.Fatalf("first batch differs after Reset: %d vs %d packets", len(first.Pkts), len(again.Pkts))
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a, _ := NewGenerator(shortCfg(1)).NextBatch()
	b, _ := NewGenerator(shortCfg(99)).NextBatch()
	if len(a.Pkts) == len(b.Pkts) {
		same := true
		for i := range a.Pkts {
			if a.Pkts[i].SrcIP != b.Pkts[i].SrcIP {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traffic")
		}
	}
}

func TestGeneratorBatchCount(t *testing.T) {
	g := NewGenerator(shortCfg(3))
	n := 0
	for {
		if _, ok := g.NextBatch(); !ok {
			break
		}
		n++
	}
	if n != 30 { // 3 s / 100 ms
		t.Fatalf("got %d batches, want 30", n)
	}
}

func TestGeneratorRateNearTarget(t *testing.T) {
	cfg := Config{Seed: 4, Duration: 10 * time.Second, PacketsPerSec: 8000}
	st := Measure(NewGenerator(cfg))
	if math.Abs(st.AvgPPS-8000)/8000 > 0.25 {
		t.Fatalf("avg pps = %.0f, want 8000 +/- 25%%", st.AvgPPS)
	}
	if st.AvgMbps < 10 {
		t.Fatalf("avg load %.1f Mbps implausibly low", st.AvgMbps)
	}
}

func TestGeneratorPacketsOrdered(t *testing.T) {
	g := NewGenerator(shortCfg(5))
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for i := 1; i < len(b.Pkts); i++ {
			if b.Pkts[i].Ts < b.Pkts[i-1].Ts {
				t.Fatal("packets out of time order")
			}
		}
		lo, hi := int64(b.Start), int64(b.Start+b.Bin)
		for _, p := range b.Pkts {
			if p.Ts < lo || p.Ts >= hi {
				t.Fatalf("packet ts %d outside bin [%d, %d)", p.Ts, lo, hi)
			}
		}
	}
}

func TestGeneratorPayloadOnlyWhenEnabled(t *testing.T) {
	g := NewGenerator(Config{Seed: 6, Duration: time.Second, PacketsPerSec: 5000})
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if p.Payload != nil {
				t.Fatal("payload generated with Payload=false")
			}
		}
	}
	g = NewGenerator(Config{Seed: 6, Duration: time.Second, PacketsPerSec: 5000, Payload: true})
	seen := false
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if len(p.Payload) > 0 {
				seen = true
				if len(p.Payload) > pkt.SnapLen {
					t.Fatalf("payload exceeds snaplen: %d", len(p.Payload))
				}
			}
		}
	}
	if !seen {
		t.Fatal("no payloads generated with Payload=true")
	}
}

func TestGeneratorEmbedsSignatures(t *testing.T) {
	g := NewGenerator(Config{
		Seed: 7, Duration: 5 * time.Second, PacketsPerSec: 8000,
		Payload: true, P2PFrac: 0.2,
	})
	found := 0
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if bytes.HasPrefix(p.Payload, SigBitTorrent) ||
				bytes.HasPrefix(p.Payload, SigGnutella) ||
				bytes.HasPrefix(p.Payload, SigED2K) {
				found++
			}
		}
	}
	if found < 10 {
		t.Fatalf("found only %d signature packets, want >= 10", found)
	}
}

func TestGeneratorTCPFirstPacketIsSYN(t *testing.T) {
	g := NewGenerator(shortCfg(8))
	syns := 0
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if p.Proto == pkt.ProtoTCP && p.TCPFlags&pkt.FlagSYN != 0 {
				syns++
				if p.Size != 40 {
					t.Fatalf("SYN packet size = %d, want 40", p.Size)
				}
			}
		}
	}
	if syns == 0 {
		t.Fatal("no SYN packets seen")
	}
}

func TestDDoSInjection(t *testing.T) {
	target := pkt.IPv4(147, 83, 1, 1)
	cfg := shortCfg(9)
	cfg.Anomalies = []Anomaly{NewSYNFlood(time.Second, time.Second, 20000, target, 80)}
	g := NewGenerator(cfg)
	inWindow, outWindow := 0, 0
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if p.DstIP == target && p.TCPFlags&pkt.FlagSYN != 0 && p.DstPort == 80 {
				ts := time.Duration(p.Ts)
				if ts >= time.Second && ts < 2*time.Second {
					inWindow++
				} else {
					outWindow++
				}
			}
		}
	}
	if inWindow < 15000 {
		t.Fatalf("flood packets in window = %d, want ~20000", inWindow)
	}
	if outWindow > 100 {
		t.Fatalf("flood packets outside window = %d", outWindow)
	}
}

func TestOnOffDDoSIdlesEveryOtherSecond(t *testing.T) {
	target := pkt.IPv4(147, 83, 1, 1)
	cfg := Config{Seed: 10, Duration: 4 * time.Second, PacketsPerSec: 1000}
	cfg.Anomalies = []Anomaly{NewOnOffDDoS(0, 4*time.Second, 10000, target)}
	g := NewGenerator(cfg)
	perSecond := make([]int, 4)
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if p.DstIP == target && p.TCPFlags&pkt.FlagSYN != 0 {
				perSecond[time.Duration(p.Ts)/time.Second]++
			}
		}
	}
	if perSecond[0] < 5000 || perSecond[2] < 5000 {
		t.Fatalf("on seconds too quiet: %v", perSecond)
	}
	if perSecond[1] > 100 || perSecond[3] > 100 {
		t.Fatalf("off seconds not idle: %v", perSecond)
	}
}

func TestWormInjection(t *testing.T) {
	cfg := shortCfg(11)
	cfg.Payload = true
	cfg.Anomalies = []Anomaly{&Worm{Start: 0, Duration: 3 * time.Second, PPS: 5000, DstPort: 80}}
	g := NewGenerator(cfg)
	probes := 0
	srcs := map[uint32]bool{}
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if bytes.Contains(p.Payload, PatternWorm) {
				probes++
				srcs[p.SrcIP] = true
			}
		}
	}
	if probes < 1000 {
		t.Fatalf("worm probes = %d, want >= 1000", probes)
	}
	if len(srcs) < 20 {
		t.Fatalf("worm sources = %d, want many", len(srcs))
	}
}

func TestByteBurstInjection(t *testing.T) {
	cfg := shortCfg(12)
	cfg.Anomalies = []Anomaly{&ByteBurst{Start: time.Second, Duration: time.Second, PPS: 5000}}
	g := NewGenerator(cfg)
	big := 0
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		for _, p := range b.Pkts {
			if p.Size == 1500 && p.DstPort == 9 {
				big++
			}
		}
	}
	if big < 4000 {
		t.Fatalf("burst packets = %d, want ~5000", big)
	}
}

func TestMemorySourceRoundTrip(t *testing.T) {
	batches := Record(NewGenerator(shortCfg(13)))
	src := NewMemorySource(batches, DefaultTimeBin)
	n := 0
	for {
		if _, ok := src.NextBatch(); !ok {
			break
		}
		n++
	}
	if n != len(batches) {
		t.Fatalf("replayed %d batches, stored %d", n, len(batches))
	}
	src.Reset()
	if _, ok := src.NextBatch(); !ok {
		t.Fatal("MemorySource did not reset")
	}
}

func TestFileRoundTrip(t *testing.T) {
	cfg := shortCfg(14)
	cfg.Payload = true
	g := NewGenerator(cfg)
	var buf bytes.Buffer
	if err := WriteAll(&buf, g); err != nil {
		t.Fatal(err)
	}
	rd, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Record(g)
	got := rd.Batches
	if len(got) != len(want) {
		t.Fatalf("batch count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || len(got[i].Pkts) != len(want[i].Pkts) {
			t.Fatalf("batch %d header mismatch", i)
		}
		for j := range want[i].Pkts {
			a, b := got[i].Pkts[j], want[i].Pkts[j]
			if a.Ts != b.Ts || a.SrcIP != b.SrcIP || a.Size != b.Size || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("batch %d packet %d mismatch", i, j)
			}
		}
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("not a trace file at all"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadAllTruncated(t *testing.T) {
	g := NewGenerator(shortCfg(15))
	var buf bytes.Buffer
	if err := WriteAll(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-7]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file read without error")
	}
}

func TestPresetsProduceTraffic(t *testing.T) {
	presets := map[string]Config{
		"cesca1":  CESCA1(1, time.Second, 0.1),
		"cesca2":  CESCA2(1, time.Second, 0.1),
		"abilene": Abilene(1, time.Second, 0.1),
		"cenic":   CENIC(1, time.Second, 0.1),
		"upc1":    UPC1(1, time.Second, 0.1),
		"upc2":    UPC2(1, time.Second, 0.1),
	}
	for name, cfg := range presets {
		st := Measure(NewGenerator(cfg))
		if st.Packets == 0 {
			t.Errorf("%s: produced no packets", name)
		}
		if name == "cesca2" || name == "upc1" || name == "upc2" {
			if !cfg.Payload {
				t.Errorf("%s should carry payloads", name)
			}
		}
	}
}

func TestMeasureStats(t *testing.T) {
	st := Measure(NewGenerator(shortCfg(16)))
	if st.Batches != 30 {
		t.Errorf("batches = %d", st.Batches)
	}
	if st.MinMbps > st.AvgMbps || st.AvgMbps > st.MaxMbps {
		t.Errorf("mbps ordering violated: min=%v avg=%v max=%v", st.MinMbps, st.AvgMbps, st.MaxMbps)
	}
	if st.Duration != 3*time.Second {
		t.Errorf("duration = %v", st.Duration)
	}
}

func TestSplitFlowsPartitionsEveryPacket(t *testing.T) {
	g := NewGenerator(shortCfg(17))
	whole := Measure(g)
	links := SplitFlows(g, 3, 7)
	if len(links) != 3 {
		t.Fatalf("got %d links, want 3", len(links))
	}
	total, nonEmpty := 0, 0
	for _, l := range links {
		st := Measure(l)
		if st.Batches != whole.Batches {
			t.Fatalf("link batch count %d, want %d (splitter must keep bin alignment)", st.Batches, whole.Batches)
		}
		total += st.Packets
		if st.Packets > 0 {
			nonEmpty++
		}
	}
	if total != whole.Packets {
		t.Fatalf("links carry %d packets, source had %d — splitter lost or duplicated traffic", total, whole.Packets)
	}
	if nonEmpty != 3 {
		t.Fatalf("only %d of 3 links carry traffic", nonEmpty)
	}
}

func TestSplitFlowsIsFlowConsistent(t *testing.T) {
	g := NewGenerator(shortCfg(18))
	links := SplitFlows(g, 4, 9)
	seen := map[pkt.FlowKey]int{}
	for li, l := range links {
		for {
			b, ok := l.NextBatch()
			if !ok {
				break
			}
			for i := range b.Pkts {
				k := b.Pkts[i].FlowKey()
				if prev, ok := seen[k]; ok && prev != li {
					t.Fatalf("flow %v split across links %d and %d", k, prev, li)
				}
				seen[k] = li
			}
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d flows observed, trace too small to trust", len(seen))
	}
}

func TestSplitFlowsDeterministic(t *testing.T) {
	a := SplitFlows(NewGenerator(shortCfg(19)), 2, 3)
	b := SplitFlows(NewGenerator(shortCfg(19)), 2, 3)
	for l := range a {
		for {
			ba, oka := a[l].NextBatch()
			bb, okb := b[l].NextBatch()
			if oka != okb {
				t.Fatal("split lengths disagree")
			}
			if !oka {
				break
			}
			if len(ba.Pkts) != len(bb.Pkts) {
				t.Fatalf("link %d batch sizes differ", l)
			}
			for i := range ba.Pkts {
				if ba.Pkts[i].Ts != bb.Pkts[i].Ts || ba.Pkts[i].SrcIP != bb.Pkts[i].SrcIP {
					t.Fatalf("link %d packet %d differs between identical splits", l, i)
				}
			}
		}
	}
	// A different seed must route flows differently.
	c := SplitFlows(NewGenerator(shortCfg(19)), 2, 4)
	a[0].Reset()
	c[0].Reset()
	ba, _ := a[0].NextBatch()
	bc, _ := c[0].NextBatch()
	if len(ba.Pkts) == len(bc.Pkts) {
		same := true
		for i := range ba.Pkts {
			if ba.Pkts[i].SrcIP != bc.Pkts[i].SrcIP {
				same = false
				break
			}
		}
		if same && len(ba.Pkts) > 0 {
			t.Fatal("different splitter seeds routed identically")
		}
	}
}

func TestAsymmetricMixShape(t *testing.T) {
	links := AsymmetricMix(1, 4*time.Second, 0.1, 3)
	if len(links) != 3 {
		t.Fatalf("got %d links", len(links))
	}
	if len(links[0].Config.Anomalies) == 0 {
		t.Fatal("link 0 carries no attack")
	}
	for i := 1; i < 3; i++ {
		if len(links[i].Config.Anomalies) != 0 {
			t.Fatalf("calm link %d carries an anomaly", i)
		}
	}
	// The hot link must actually dominate: compare measured packet load.
	hot := Measure(NewGenerator(links[0].Config))
	calm := Measure(NewGenerator(links[1].Config))
	if hot.Packets <= calm.Packets {
		t.Fatalf("hot link %d pkts not above calm link %d", hot.Packets, calm.Packets)
	}
}

// TestSortBatchMatchesStableSort: sortBatch's early return for batches
// already in order must not change what any batch sorts to. Packets of
// equal timestamp carry their arrival position in SrcIP, so a result
// that reorders them — in a sorted batch or an unsorted one — differs
// from the plain stable sort it replaced.
func TestSortBatchMatchesStableSort(t *testing.T) {
	mk := func(ts ...int64) []pkt.Packet {
		ps := make([]pkt.Packet, len(ts))
		for i, v := range ts {
			ps[i] = pkt.Packet{Ts: v, SrcIP: uint32(i)}
		}
		return ps
	}
	for _, ps := range [][]pkt.Packet{
		nil,
		mk(5),
		mk(1, 2, 2, 2, 3, 3, 9),          // in order, with ties
		mk(4, 1, 4, 2, 1, 4, 0, 2, 2, 9), // injected out of order, with ties
		mk(3, 3, 3, 2, 2, 1),
	} {
		want := slices.Clone(ps)
		slices.SortStableFunc(want, func(x, y pkt.Packet) int { return cmp.Compare(x.Ts, y.Ts) })
		b := pkt.Batch{Pkts: slices.Clone(ps)}
		sortBatch(&b)
		for i := range want {
			if b.Pkts[i].Ts != want[i].Ts || b.Pkts[i].SrcIP != want[i].SrcIP {
				t.Fatalf("sortBatch(%v)[%d] = {Ts %d, pos %d}, stable sort has {Ts %d, pos %d}",
					ps, i, b.Pkts[i].Ts, b.Pkts[i].SrcIP, want[i].Ts, want[i].SrcIP)
			}
		}
	}
}
