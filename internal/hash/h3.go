// Package hash implements the H3 family of universal hash functions used
// by the Flowwise flow-sampling mechanism (thesis §4.2, [27]) and the
// multi-resolution bitmap counters.
//
// An H3 function over b-bit keys is defined by a random b×w bit matrix Q;
// the hash of key x is the XOR of the rows of Q selected by the 1-bits of
// x. The implementation precomputes, for every byte position and byte
// value, the XOR of the corresponding eight rows, so hashing a key costs
// one table lookup and one XOR per key byte — a deterministic worst case,
// which is the property the load shedding system relies on.
package hash

import (
	"math"
	"math/bits"

	"repro/internal/pkt"
)

// H3 is a member of the H3 universal hash family over pkt.FlowKeySize-byte keys
// producing 64-bit values. The zero value is unusable; construct with
// NewH3.
//
// An H3 value is immutable between Reseed calls: Hash, HashAgg and
// AggHashes only read the lookup table, so any number of goroutines may
// hash through the same H3 concurrently (into distinct dst buffers for
// AggHashes). This read-only contract is what lets sketches be filled
// concurrently through one extractor's H3 functions. Reseed is the
// single mutator and must not run concurrently with hashing.
type H3 struct {
	table [pkt.FlowKeySize][256]uint64
}

// NewH3 draws a random H3 function using the given seed. Two H3 values
// built from the same seed are identical; different seeds yield
// independent functions with overwhelming probability.
func NewH3(seed uint64) *H3 {
	h := &H3{}
	h.Reseed(seed)
	return h
}

// Reseed redraws the function in place from seed: afterwards h is
// indistinguishable from NewH3(seed). Callers that redraw every
// measurement interval (the flow sampler, per §4.2) reseed instead of
// reallocating the 26 KB lookup table each time.
func (h *H3) Reseed(seed uint64) {
	rng := NewXorShift(seed)
	// Draw the 8 rows of Q covering each byte position, then fold them
	// into the 256-entry lookup table for that position: entry v is the
	// entry for v without its lowest set bit, XOR that bit's row.
	for pos := range h.table {
		var rows [8]uint64
		for bit := range rows {
			rows[bit] = rng.Uint64()
		}
		t := &h.table[pos]
		t[0] = 0
		for v := 1; v < 256; v++ {
			t[v] = t[v&(v-1)] ^ rows[bits.TrailingZeros8(uint8(v))]
		}
	}
}

// Hash returns the 64-bit H3 hash of a pkt.FlowKeySize-byte flow key. Keys shorter
// than that are hashed over their length; longer keys are truncated.
func (h *H3) Hash(key []byte) uint64 {
	n := len(key)
	if n > pkt.FlowKeySize {
		n = pkt.FlowKeySize
	}
	var acc uint64
	for i := 0; i < n; i++ {
		acc ^= h.table[i][key[i]]
	}
	return acc
}

// Unit maps a key to the half-open unit interval [0, 1), the form used
// for sampling decisions: a packet is selected when Unit(key) < rate.
func (h *H3) Unit(key []byte) float64 {
	return float64(h.Hash(key)>>11) / float64(1<<53)
}

// HashAgg returns the H3 hash of packet p's key for aggregate a,
// bit-identical to Hash(p.AppendAggKey(nil, a)) — XORing the
// per-(position,byte) tables of the key's fixed layout directly from
// the header fields, with no serialization buffer in between. This is
// the per-packet fast path of feature extraction (§3.2.1: one hash and
// one bitmap write per aggregate); the byte-slice Hash stays as the
// equivalence oracle.
func (h *H3) HashAgg(p *pkt.Packet, a pkt.Aggregate) uint64 {
	switch a {
	case pkt.AggSrcIP:
		return h.u32(0, p.SrcIP)
	case pkt.AggDstIP:
		return h.u32(0, p.DstIP)
	case pkt.AggProto:
		return h.table[0][p.Proto]
	case pkt.AggSrcDstIP:
		return h.u32(0, p.SrcIP) ^ h.u32(4, p.DstIP)
	case pkt.AggSrcPortProto:
		return h.u16(0, p.SrcPort) ^ h.table[2][p.Proto]
	case pkt.AggDstPortProto:
		return h.u16(0, p.DstPort) ^ h.table[2][p.Proto]
	case pkt.AggSrcIPSrcPortProto:
		return h.u32(0, p.SrcIP) ^ h.u16(4, p.SrcPort) ^ h.table[6][p.Proto]
	case pkt.AggDstIPDstPortProto:
		return h.u32(0, p.DstIP) ^ h.u16(4, p.DstPort) ^ h.table[6][p.Proto]
	case pkt.AggSrcDstPortProto:
		return h.u16(0, p.SrcPort) ^ h.u16(2, p.DstPort) ^ h.table[4][p.Proto]
	case pkt.Agg5Tuple:
		return h.u32(0, p.SrcIP) ^ h.u32(4, p.DstIP) ^
			h.u16(8, p.SrcPort) ^ h.u16(10, p.DstPort) ^ h.table[12][p.Proto]
	default:
		panic("hash: unknown aggregate")
	}
}

// AggHashes fills dst (grown if needed, overwritten, returned) with the
// Mix64-finalized H3 hash of every packet's aggregate-a key:
// dst[i] = Mix64(HashAgg(&pkts[i], a)). This is the bulk form the
// feature extractor's hot loop uses: the aggregate switch is resolved
// once per batch instead of once per packet, and each case body is a
// tight loop of table lookups and XORs that streams the packet slice
// through a single cache-resident lookup table.
func (h *H3) AggHashes(dst []uint64, pkts []pkt.Packet, a pkt.Aggregate) []uint64 {
	if cap(dst) < len(pkts) {
		dst = make([]uint64, len(pkts))
	}
	dst = dst[:len(pkts)]
	switch a {
	case pkt.AggSrcIP:
		for i := range pkts {
			dst[i] = Mix64(h.u32(0, pkts[i].SrcIP))
		}
	case pkt.AggDstIP:
		for i := range pkts {
			dst[i] = Mix64(h.u32(0, pkts[i].DstIP))
		}
	case pkt.AggProto:
		for i := range pkts {
			dst[i] = Mix64(h.table[0][pkts[i].Proto])
		}
	case pkt.AggSrcDstIP:
		for i := range pkts {
			dst[i] = Mix64(h.u32(0, pkts[i].SrcIP) ^ h.u32(4, pkts[i].DstIP))
		}
	case pkt.AggSrcPortProto:
		for i := range pkts {
			dst[i] = Mix64(h.u16(0, pkts[i].SrcPort) ^ h.table[2][pkts[i].Proto])
		}
	case pkt.AggDstPortProto:
		for i := range pkts {
			dst[i] = Mix64(h.u16(0, pkts[i].DstPort) ^ h.table[2][pkts[i].Proto])
		}
	case pkt.AggSrcIPSrcPortProto:
		for i := range pkts {
			dst[i] = Mix64(h.u32(0, pkts[i].SrcIP) ^ h.u16(4, pkts[i].SrcPort) ^ h.table[6][pkts[i].Proto])
		}
	case pkt.AggDstIPDstPortProto:
		for i := range pkts {
			dst[i] = Mix64(h.u32(0, pkts[i].DstIP) ^ h.u16(4, pkts[i].DstPort) ^ h.table[6][pkts[i].Proto])
		}
	case pkt.AggSrcDstPortProto:
		for i := range pkts {
			dst[i] = Mix64(h.u16(0, pkts[i].SrcPort) ^ h.u16(2, pkts[i].DstPort) ^ h.table[4][pkts[i].Proto])
		}
	case pkt.Agg5Tuple:
		for i := range pkts {
			p := &pkts[i]
			dst[i] = Mix64(h.u32(0, p.SrcIP) ^ h.u32(4, p.DstIP) ^
				h.u16(8, p.SrcPort) ^ h.u16(10, p.DstPort) ^ h.table[12][p.Proto])
		}
	default:
		panic("hash: unknown aggregate")
	}
	return dst
}

// u32 hashes a big-endian 32-bit field whose serialization starts at
// key byte pos.
func (h *H3) u32(pos int, v uint32) uint64 {
	return h.table[pos][byte(v>>24)] ^ h.table[pos+1][byte(v>>16)] ^
		h.table[pos+2][byte(v>>8)] ^ h.table[pos+3][byte(v)]
}

// u16 hashes a big-endian 16-bit field whose serialization starts at
// key byte pos.
func (h *H3) u16(pos int, v uint16) uint64 {
	return h.table[pos][byte(v>>8)] ^ h.table[pos+1][byte(v)]
}

// Mix64 applies the splitmix64 finalizer to x. H3 is linear over GF(2),
// so key sets that form a dense linear subspace (sequential integers,
// say) map to hash sets with too-regular bit patterns, which biases
// bitmap-based distinct counting. Passing H3 output through Mix64 breaks
// that linearity; the counting path always does.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FlowSalt is the slot-placement salt of a pkt.FlowTable or
// pkt.FlowIndex owned by a component seeded with seed.
func FlowSalt(seed uint64) uint64 { return Mix64(seed + 0xf10e) }

// XorShift is a xorshift64* pseudo-random generator. It is tiny, fast,
// allocation free and fully deterministic per seed, which is all the
// monitoring pipeline needs (math/rand would work too, but a local
// generator keeps hot paths free of interface indirection).
type XorShift struct {
	state uint64
}

// NewXorShift returns a generator seeded with seed (0 is remapped so the
// state never sticks at the xorshift fixed point).
func NewXorShift(seed uint64) *XorShift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &XorShift{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (x *XorShift) Uint64() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545f4914f6cdd1d
}

// Int63 returns a non-negative pseudo-random 63-bit integer. Together
// with Seed and Uint64 it lets XorShift serve as a math/rand.Source64,
// so stdlib samplers (e.g. rand.Zipf) can draw from it.
func (x *XorShift) Int63() int64 {
	return int64(x.Uint64() >> 1)
}

// Seed resets the generator state, satisfying math/rand.Source.
func (x *XorShift) Seed(seed int64) {
	if seed == 0 {
		x.state = 0x9e3779b97f4a7c15
		return
	}
	x.state = uint64(seed)
}

// State returns the raw generator state, so a checkpoint can capture
// the stream position exactly (see SetState).
func (x *XorShift) State() uint64 { return x.state }

// SetState restores a state previously returned by State: the generator
// then continues the identical draw sequence. A zero state is remapped
// the same way NewXorShift remaps a zero seed, so a restored generator
// can never stick at the xorshift fixed point.
func (x *XorShift) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	x.state = s
}

// Float64 returns a uniform value in [0, 1).
func (x *XorShift) Float64() float64 {
	return float64(x.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *XorShift) Intn(n int) int {
	if n <= 0 {
		panic("hash: Intn with non-positive bound")
	}
	return int(x.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform. Used to add measurement noise to the simulated cycle
// counter.
func (x *XorShift) NormFloat64() float64 {
	// Box-Muller needs u1 in (0,1]; keep drawing until non-zero.
	u1 := x.Float64()
	for u1 == 0 {
		u1 = x.Float64()
	}
	u2 := x.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Pareto returns a Pareto-distributed variate with scale xm > 0 and
// shape alpha > 0, used for heavy-tailed flow sizes in the traffic
// generator.
func (x *XorShift) Pareto(xm, alpha float64) float64 {
	u := x.Float64()
	for u == 0 {
		u = x.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Exp returns an exponentially distributed variate with the given rate.
func (x *XorShift) Exp(rate float64) float64 {
	u := x.Float64()
	for u == 0 {
		u = x.Float64()
	}
	return -math.Log(u) / rate
}
