// Package pkt defines the packet, flow-key and batch types that flow
// through the monitoring pipeline, mirroring CoMo's unified packet
// stream (thesis §2.1.2). Timestamps are virtual: the whole system is
// trace-clocked, so a nanosecond int64 carries all the time information
// the pipeline needs and experiments are deterministic.
package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
)

// Protocol numbers (IANA) used by the generator and queries.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits carried in Packet.TCPFlags (FIN and RST go unused).
const (
	_ = 1 << iota
	FlagSYN
	_
	FlagPSH
	FlagACK
)

// Packet is one captured packet. Size is the wire length; Payload holds
// up to SnapLen bytes of application payload (nil in header-only
// traces), like a snaplen-limited capture.
type Packet struct {
	Ts       int64 // virtual capture time, nanoseconds
	SrcIP    uint32
	DstIP    uint32
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
	TCPFlags uint8
	Size     int // wire length in bytes
	Payload  []byte
}

// SnapLen is the maximum payload bytes captured per packet.
const SnapLen = 256

// FlowKeySize is the length in bytes of a serialized 5-tuple key.
const FlowKeySize = 13

// FlowKey is the canonical serialized 5-tuple: src IP, dst IP, src
// port, dst port, protocol. It is comparable and therefore usable as a
// map key.
type FlowKey [FlowKeySize]byte

// FlowKey returns the packet's 5-tuple key.
func (p *Packet) FlowKey() FlowKey {
	var k FlowKey
	binary.BigEndian.PutUint32(k[0:4], p.SrcIP)
	binary.BigEndian.PutUint32(k[4:8], p.DstIP)
	binary.BigEndian.PutUint16(k[8:10], p.SrcPort)
	binary.BigEndian.PutUint16(k[10:12], p.DstPort)
	k[12] = p.Proto
	return k
}

// String renders the key in src -> dst form for logs and tests.
func (k FlowKey) String() string {
	src := netip.AddrFrom4([4]byte(k[0:4]))
	dst := netip.AddrFrom4([4]byte(k[4:8]))
	sp := binary.BigEndian.Uint16(k[8:10])
	dp := binary.BigEndian.Uint16(k[10:12])
	return fmt.Sprintf("%s:%d -> %s:%d /%d", src, sp, dst, dp, k[12])
}

// Aggregate identifies one of the traffic aggregates of Table 3.1 —
// the header-field combinations over which the feature extractor counts
// unique/new/repeated items.
type Aggregate int

// The ten aggregates of Table 3.1, in table order.
const (
	AggSrcIP Aggregate = iota
	AggDstIP
	AggProto
	AggSrcDstIP
	AggSrcPortProto
	AggDstPortProto
	AggSrcIPSrcPortProto
	AggDstIPDstPortProto
	AggSrcDstPortProto
	Agg5Tuple

	NumAggregates = 10
)

var aggregateNames = [NumAggregates]string{
	"src-ip",
	"dst-ip",
	"proto",
	"src-dst-ip",
	"src-port-proto",
	"dst-port-proto",
	"src-ip-src-port-proto",
	"dst-ip-dst-port-proto",
	"src-dst-port-proto",
	"5-tuple",
}

// String returns the thesis name for the aggregate.
func (a Aggregate) String() string {
	if a < 0 || int(a) >= NumAggregates {
		return fmt.Sprintf("aggregate(%d)", int(a))
	}
	return aggregateNames[a]
}

// AppendAggKey appends the packet's key bytes for aggregate a to buf and
// returns the extended slice. Keys are fixed-width per aggregate so the
// caller can reuse one buffer across packets.
func (p *Packet) AppendAggKey(buf []byte, a Aggregate) []byte {
	switch a {
	case AggSrcIP:
		return binary.BigEndian.AppendUint32(buf, p.SrcIP)
	case AggDstIP:
		return binary.BigEndian.AppendUint32(buf, p.DstIP)
	case AggProto:
		return append(buf, p.Proto)
	case AggSrcDstIP:
		buf = binary.BigEndian.AppendUint32(buf, p.SrcIP)
		return binary.BigEndian.AppendUint32(buf, p.DstIP)
	case AggSrcPortProto:
		buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
		return append(buf, p.Proto)
	case AggDstPortProto:
		buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
		return append(buf, p.Proto)
	case AggSrcIPSrcPortProto:
		buf = binary.BigEndian.AppendUint32(buf, p.SrcIP)
		buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
		return append(buf, p.Proto)
	case AggDstIPDstPortProto:
		buf = binary.BigEndian.AppendUint32(buf, p.DstIP)
		buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
		return append(buf, p.Proto)
	case AggSrcDstPortProto:
		buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
		return append(buf, p.Proto)
	case Agg5Tuple:
		k := p.FlowKey()
		return append(buf, k[:]...)
	default:
		panic(fmt.Sprintf("pkt: unknown aggregate %d", int(a)))
	}
}

// Batch is the set of packets collected during one time bin (§2.4). The
// monitoring system processes one batch at a time; 100 ms is the bin
// used throughout the thesis.
type Batch struct {
	Start time.Duration // offset of the bin start from trace start
	Bin   time.Duration // bin length
	Pkts  []Packet
	// Sel, when non-nil, is a selection: the batch holds Pkts[Sel[0]],
	// Pkts[Sel[1]], … (ascending indices, as the sampling kernels write
	// them) and nothing else. A sampled view of a bin is its packets plus
	// a selection, so no packet is copied to shed one. nil means every
	// packet of Pkts. Read a batch through Packets, Bytes and At, which
	// honour Sel.
	Sel []int32
	// Flows, when non-nil, is the flow index of Pkts (not of Sel: a
	// selection reads it through Sel). Consumers take it through Index,
	// which checks that it still describes Pkts, so a batch whose Pkts
	// were replaced after indexing is indexed afresh rather than read
	// with another slice's ids.
	Flows *FlowIndex

	// Bytes() cache: cachedFor holds Packets()+1 at the time the sum was
	// taken (0 = no cache), so shrinking Pkts or Sel — what admission
	// drops and sampling do — invalidates it for free. Callers that
	// replace Pkts or Sel with a different one of the same length must
	// use a fresh Batch value. The cache makes Bytes unsafe for
	// concurrent use on a shared *Batch; the pipeline only calls it on
	// goroutine-local batches.
	cachedBytes int
	cachedFor   int
}

// Packets returns the number of packets in the batch.
func (b *Batch) Packets() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Pkts)
}

// At returns the batch's i-th packet (0 <= i < Packets()).
func (b *Batch) At(i int) *Packet {
	if b.Sel != nil {
		return &b.Pkts[b.Sel[i]]
	}
	return &b.Pkts[i]
}

// IndexInto builds x over b.Pkts and attaches it as b.Flows. The same
// pass over the packets takes the byte sum Bytes serves (when b reads
// every packet of Pkts).
func (b *Batch) IndexInto(x *FlowIndex) {
	bytes := x.build(b.Pkts)
	b.Flows = x
	if b.Sel == nil {
		b.cachedBytes, b.cachedFor = bytes, len(b.Pkts)+1
	}
}

// Index returns the flow index of b.Pkts: b.Flows when it describes
// them, else scratch, rebuilt over them.
func (b *Batch) Index(scratch *FlowIndex) *FlowIndex {
	if b.Flows != nil && b.Flows.describes(b.Pkts) {
		return b.Flows
	}
	scratch.Build(b.Pkts)
	return scratch
}

// Bytes returns the total wire bytes in the batch, summing once and
// serving repeat calls from a cache keyed on the packet count.
func (b *Batch) Bytes() int {
	n := b.Packets()
	if b.cachedFor == n+1 {
		return b.cachedBytes
	}
	sum := 0
	for i := range n {
		sum += b.At(i).Size
	}
	b.cachedBytes, b.cachedFor = sum, n+1
	return sum
}

// IPv4 builds a uint32 address from dotted quads, for readable tests
// and generator configs.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
