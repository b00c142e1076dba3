// Package sampling implements the load shedding mechanisms of thesis
// §4.2: uniform packet sampling and hash-based flow sampling (Flowwise,
// [43]) with a fresh H3 function drawn every measurement interval to
// prevent bias and deliberate evasion.
package sampling

import (
	"math"
	"slices"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// Method identifies how excess load is shed for a query (Table 2.2).
type Method int

const (
	// none disables shedding for the query.
	none Method = iota
	// Packet selects individual packets with probability equal to the
	// sampling rate.
	Packet
	// Flow selects entire 5-tuple flows with probability equal to the
	// sampling rate (Flowwise hash-based selection).
	Flow
	// Custom delegates shedding to the query itself (Chapter 6).
	Custom
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case none:
		return "none"
	case Packet:
		return "packet"
	case Flow:
		return "flow"
	case Custom:
		return "custom"
	default:
		return "unknown"
	}
}

// PacketSampler selects packets independently with the requested
// probability. The zero value is unusable; construct with
// NewPacketSampler.
type PacketSampler struct {
	rng *hash.XorShift
	idx []int32 // SampleInto's selection scratch
}

// NewPacketSampler returns a sampler seeded deterministically.
func NewPacketSampler(seed uint64) *PacketSampler {
	return &PacketSampler{rng: hash.NewXorShift(seed)}
}

// State returns the sampler's RNG state for a checkpoint.
func (s *PacketSampler) State() uint64 { return s.rng.State() }

// SetState restores a state returned by State: the sampler then makes
// the identical selection sequence a never-checkpointed one would.
func (s *PacketSampler) SetState(st uint64) { s.rng.SetState(st) }

// threshold returns the integer t with d < t ⇔ float64(d)/2⁵³ < rate for
// every 53-bit draw d — ceil(rate·2⁵³), both steps exact in float64 for
// 0 < rate < 1 — so a selection loop compares integers instead of
// converting and dividing per packet. NaN compares false with
// everything and maps to 0: nothing is selected.
func threshold(rate float64) uint64 {
	if rate != rate {
		return 0
	}
	return uint64(math.Ceil(rate * (1 << 53)))
}

// sized returns idx with length n, growing it (amortized, as append
// does) only when capacity is short; contents are unspecified.
func sized(idx []int32, n int) []int32 {
	return slices.Grow(idx[:0], n)[:n]
}

// identity fills idx with 0..n-1, the selection of a rate >= 1.
func identity(idx []int32, n int) []int32 {
	idx = sized(idx, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// gather copies the selected packets into dst (truncated, grown only
// when capacity runs out): the one place a sampled view is materialized.
func gather(dst []pkt.Packet, pkts []pkt.Packet, idx []int32) []pkt.Packet {
	dst = slices.Grow(dst[:0], len(idx))[:len(idx)]
	for j, i := range idx {
		dst[j] = pkts[i]
	}
	return dst
}

// SelectInto is the sampling kernel: it writes the ascending indices of
// the packets selected out of n with probability rate into idx
// (overwritten, grown only when its capacity is below n) and returns
// them. One RNG draw per packet when 0 < rate < 1 (or rate is NaN,
// which selects nothing), none otherwise; a rate >= 1 selects every
// index, a rate <= 0 none. The draw is compared as an integer against
// threshold(rate) and the compaction is branch-free — every index is
// stored, the cursor advances only past a kept one — because at rates
// near 0.5 a conditional append mispredicts on every other packet.
func (s *PacketSampler) SelectInto(idx []int32, n int, rate float64) []int32 {
	if rate >= 1 {
		return identity(idx, n)
	}
	if rate <= 0 {
		return idx[:0]
	}
	idx = sized(idx, n)
	thr := threshold(rate)
	rng := *s.rng // local copy: the state stays in a register across the loop
	k := 0
	for i := range idx {
		idx[k] = int32(i)
		// Both sides are below 2⁶³, so the difference's sign bit is the
		// comparison d < thr.
		k += int((rng.Uint64()>>11 - thr) >> 63)
	}
	*s.rng = rng
	return idx[:k]
}

// SelectPair is a.SelectInto(idxA, n, rateA) and b.SelectInto(idxB, n,
// rateB) in one loop: the same selections and the same RNG positions
// afterwards. Each draw waits on the previous one of its generator, so
// one stream's loop is as long as its xorshift chain; interleaving two
// streams lets their chains overlap. a and b must be distinct samplers.
func SelectPair(a, b *PacketSampler, idxA, idxB []int32, n int, rateA, rateB float64) ([]int32, []int32) {
	if rateA >= 1 || rateA <= 0 || rateB >= 1 || rateB <= 0 {
		return a.SelectInto(idxA, n, rateA), b.SelectInto(idxB, n, rateB)
	}
	idxA, idxB = sized(idxA, n), sized(idxB, n)
	thrA, thrB := threshold(rateA), threshold(rateB)
	rngA, rngB := *a.rng, *b.rng
	kA, kB := 0, 0
	for i := range n {
		idxA[kA], idxB[kB] = int32(i), int32(i)
		kA += int((rngA.Uint64()>>11 - thrA) >> 63)
		kB += int((rngB.Uint64()>>11 - thrB) >> 63)
	}
	*a.rng, *b.rng = rngA, rngB
	return idxA[:kA], idxB[:kB]
}

// SampleInto copies the packets of pkts selected with probability rate
// into dst (truncated, grown only when capacity runs out): SelectInto,
// then one gather. A rate >= 1 returns the input slice itself (no copy
// — shedding nothing is free), bypassing dst, so the result may alias
// the caller's batch; consistent with the trace.Source ownership
// contract, treat both as read-only. A rate <= 0 selects nothing. The
// engine reads a selection in place through pkt.Batch.Sel instead.
func (s *PacketSampler) SampleInto(dst []pkt.Packet, pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	s.idx = s.SelectInto(s.idx, len(pkts), rate)
	return gather(dst, pkts, s.idx)
}

// FlowSampler implements Flowwise sampling: a packet is selected when
// the H3 hash of its 5-tuple, mapped to [0,1), falls below the sampling
// rate, so whole flows are kept or dropped together without caching any
// per-flow state across bins. StartInterval draws a fresh hash function,
// as §4.2 prescribes, once per measurement interval.
type FlowSampler struct {
	seed     uint64
	interval uint64
	h        *hash.H3
	keep     []uint8        // SelectInto's scratch: 1 for each kept flow of the index
	own      *pkt.FlowIndex // SampleInto's index of the packets it is given
	idx      []int32        // SampleInto's selection scratch
}

// NewFlowSampler returns a flow sampler; call StartInterval before the
// first use of each measurement interval.
func NewFlowSampler(seed uint64) *FlowSampler {
	fs := &FlowSampler{seed: seed, h: new(hash.H3)}
	fs.StartInterval()
	return fs
}

// StartInterval re-draws the hash function for a new measurement
// interval, reseeding the existing table in place.
func (s *FlowSampler) StartInterval() { s.SetInterval(s.interval + 1) }

// Interval returns the interval counter a checkpoint must carry: the
// hash function is a pure function of (seed, interval), so the counter
// is the sampler's entire mutable state.
func (s *FlowSampler) Interval() uint64 { return s.interval }

// SetInterval restores a counter returned by Interval and re-derives
// the interval's hash function from it, so a restored sampler keeps or
// drops exactly the flows the original would have.
func (s *FlowSampler) SetInterval(interval uint64) {
	s.interval = interval
	s.h.Reseed(s.seed + s.interval*0x9e3779b97f4a7c15)
}

// SelectInto is the flow-sampling kernel: the ascending indices of the
// packets of the batch x indexes whose flows are selected at rate,
// written into idx (overwritten, grown only when its capacity is below
// the packet count). The decision is made once per flow of the index:
// its 5-tuple is hashed field-wise (hash.H3.HashAgg, bit-identical to
// hashing the serialized FlowKey) and the top 53 bits are compared
// against threshold(rate). Packets are then selected through their flow
// ids with the same branch-free compaction as PacketSampler.SelectInto.
// A rate >= 1 selects every index, a rate <= 0 or NaN none.
func (s *FlowSampler) SelectInto(idx []int32, x *pkt.FlowIndex, rate float64) []int32 {
	if rate >= 1 {
		return identity(idx, len(x.ID))
	}
	if !(rate > 0) {
		return idx[:0]
	}
	thr := threshold(rate)
	keep := slices.Grow(s.keep[:0], len(x.Keys))[:len(x.Keys)]
	for f := range x.Keys {
		keep[f] = uint8((s.h.HashAgg(&x.Keys[f], pkt.Agg5Tuple)>>11 - thr) >> 63)
	}
	s.keep = keep
	idx = sized(idx, len(x.ID))
	k := 0
	for i, f := range x.ID {
		idx[k] = int32(i)
		k += int(keep[f])
	}
	return idx[:k]
}

// SampleInto copies the packets of pkts whose flows are selected at rate
// into dst (truncated, grown only when capacity runs out): the packets
// indexed into the sampler's own FlowIndex, SelectInto, then one gather.
// Like PacketSampler.SampleInto, a rate >= 1 returns the input slice
// itself, bypassing dst; treat both as read-only.
func (s *FlowSampler) SampleInto(dst []pkt.Packet, pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	if s.own == nil {
		s.own = pkt.NewFlowIndex(hash.FlowSalt(s.seed))
	}
	s.own.Build(pkts)
	s.idx = s.SelectInto(s.idx, s.own, rate)
	return gather(dst, pkts, s.idx)
}
