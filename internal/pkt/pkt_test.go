package pkt

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func samplePacket() Packet {
	return Packet{
		Ts:      123,
		SrcIP:   IPv4(10, 0, 0, 1),
		DstIP:   IPv4(192, 168, 1, 2),
		SrcPort: 12345,
		DstPort: 80,
		Proto:   ProtoTCP,
		Size:    1500,
	}
}

func TestFlowKeyLayout(t *testing.T) {
	p := samplePacket()
	k := p.FlowKey()
	if k[0] != 10 || k[3] != 1 {
		t.Errorf("src ip bytes wrong: %v", k[0:4])
	}
	if k[4] != 192 || k[7] != 2 {
		t.Errorf("dst ip bytes wrong: %v", k[4:8])
	}
	if got := uint16(k[8])<<8 | uint16(k[9]); got != 12345 {
		t.Errorf("src port = %d", got)
	}
	if got := uint16(k[10])<<8 | uint16(k[11]); got != 80 {
		t.Errorf("dst port = %d", got)
	}
	if k[12] != ProtoTCP {
		t.Errorf("proto = %d", k[12])
	}
}

func TestFlowKeyString(t *testing.T) {
	p := samplePacket()
	s := p.FlowKey().String()
	for _, want := range []string{"10.0.0.1", "192.168.1.2", "12345", "80", "/6"} {
		if !strings.Contains(s, want) {
			t.Errorf("FlowKey string %q missing %q", s, want)
		}
	}
}

func TestFlowKeyInjectiveOnFields(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16, proto uint8) bool {
		p1 := Packet{SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp, Proto: proto}
		p2 := p1
		p2.SrcPort ^= 1
		return p1.FlowKey() != p2.FlowKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateNames(t *testing.T) {
	if AggSrcIP.String() != "src-ip" {
		t.Errorf("AggSrcIP = %q", AggSrcIP.String())
	}
	if Agg5Tuple.String() != "5-tuple" {
		t.Errorf("Agg5Tuple = %q", Agg5Tuple.String())
	}
	if got := Aggregate(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range aggregate = %q", got)
	}
}

func TestAppendAggKeyWidths(t *testing.T) {
	p := samplePacket()
	wants := map[Aggregate]int{
		AggSrcIP:             4,
		AggDstIP:             4,
		AggProto:             1,
		AggSrcDstIP:          8,
		AggSrcPortProto:      3,
		AggDstPortProto:      3,
		AggSrcIPSrcPortProto: 7,
		AggDstIPDstPortProto: 7,
		AggSrcDstPortProto:   5,
		Agg5Tuple:            FlowKeySize,
	}
	for a, want := range wants {
		got := p.AppendAggKey(nil, a)
		if len(got) != want {
			t.Errorf("%v key width = %d, want %d", a, len(got), want)
		}
	}
}

func TestAppendAggKeyReusesBuffer(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, 0, 64)
	k1 := p.AppendAggKey(buf, AggSrcDstIP)
	k2 := p.AppendAggKey(buf, AggSrcDstIP)
	if &k1[0] != &k2[0] {
		t.Skip("allocator moved the buffer; nothing to assert")
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("repeated extraction differs")
		}
	}
}

func TestAppendAggKeyDistinguishesDirections(t *testing.T) {
	p := samplePacket()
	rev := p
	rev.SrcIP, rev.DstIP = p.DstIP, p.SrcIP
	fw := p.AppendAggKey(nil, AggSrcDstIP)
	bw := rev.AppendAggKey(nil, AggSrcDstIP)
	if string(fw) == string(bw) {
		t.Fatal("src-dst-ip aggregate must be direction sensitive")
	}
}

func TestAppendAggKeyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := samplePacket()
	p.AppendAggKey(nil, Aggregate(42))
}

func TestBatchAccounting(t *testing.T) {
	b := Batch{
		Start: 0,
		Bin:   100 * time.Millisecond,
		Pkts: []Packet{
			{Size: 100, Payload: []byte("abc")},
			{Size: 200},
			{Size: 300, Payload: []byte("xy")},
		},
	}
	if b.Packets() != 3 {
		t.Errorf("Packets = %d", b.Packets())
	}
	if b.Bytes() != 600 {
		t.Errorf("Bytes = %d", b.Bytes())
	}
	if b.Bytes() != 600 {
		t.Errorf("cached Bytes = %d", b.Bytes())
	}
}

func TestBatchBytesCacheInvalidatedByShrink(t *testing.T) {
	b := Batch{Pkts: []Packet{{Size: 100}, {Size: 200}, {Size: 300}}}
	if b.Bytes() != 600 {
		t.Fatalf("Bytes = %d", b.Bytes())
	}
	// Sampling and admission drops shrink Pkts; the cache must notice.
	sampled := b
	sampled.Pkts = b.Pkts[:1]
	if sampled.Bytes() != 100 {
		t.Fatalf("shrunk Bytes = %d, want 100", sampled.Bytes())
	}
	sampled.Pkts = nil
	if sampled.Bytes() != 0 {
		t.Fatalf("empty Bytes = %d, want 0", sampled.Bytes())
	}
	// The original batch's cache is unaffected by the copy.
	if b.Bytes() != 600 {
		t.Fatalf("original Bytes = %d", b.Bytes())
	}
}

func TestBatchBytesEmpty(t *testing.T) {
	var b Batch
	if b.Bytes() != 0 {
		t.Fatalf("empty Bytes = %d", b.Bytes())
	}
}

func TestIPv4(t *testing.T) {
	if IPv4(1, 2, 3, 4) != 0x01020304 {
		t.Fatalf("IPv4 = %#x", IPv4(1, 2, 3, 4))
	}
}
