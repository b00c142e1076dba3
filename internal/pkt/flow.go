package pkt

import "slices"

// FlowTable is the repo's one 5-tuple table: it maps a key packed into
// two words to a dense id in insertion order, so a caller hangs state
// off a key by id instead of by pointer. Open addressing with linear
// probing over a power-of-two slot array held at load ≤ ½; a probe is
// two integer compares instead of a 13-byte hash and memequal. A slot
// belongs to the fill whose stamp it carries, so Reset clears nothing:
// it bumps the stamp. The salt, chosen by the owner from its seed, makes
// slot placement not a public function of the key.
//
// The zero value is an empty table with salt 0; NewFlowTable salts one.
// Slots are allocated on the first insert and grow, never shrink.
type FlowTable struct {
	slots []flowSlot
	n     int32  // keys inserted since the last Reset
	stamp uint32 // the current fill's; never 0 once slots exist, 0 being a fresh slot's
	salt  uint64
}

// flowSlot is one packed key, its dense id and the fill it belongs to
// (24 B).
type flowSlot struct {
	hi, lo uint64
	stamp  uint32
	id     int32
}

const flowTableInit = 256 // slots before the first doubling

// NewFlowTable returns an empty table whose slot placement is salted
// with salt.
func NewFlowTable(salt uint64) FlowTable { return FlowTable{salt: salt} }

// FlowWords packs p's 5-tuple into a FlowTable key: SrcIP<<32 | DstIP
// and SrcPort<<24 | DstPort<<8 | Proto.
func FlowWords(p *Packet) (hi, lo uint64) {
	return uint64(p.SrcIP)<<32 | uint64(p.DstIP), uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
}

// Len reports how many keys were inserted since the last Reset.
func (t *FlowTable) Len() int { return int(t.n) }

// Reset empties the table in O(1), keeping its capacity: ids restart at
// 0.
func (t *FlowTable) Reset() {
	t.n = 0
	if t.stamp++; t.stamp == 0 { // wrapped: slots from 2³² fills ago would read as current
		clear(t.slots)
		t.stamp = 1
	}
}

// Insert adds key (hi, lo) if absent and returns its id — the number of
// keys inserted before it since the last Reset — and whether it was
// absent.
func (t *FlowTable) Insert(hi, lo uint64) (id int32, inserted bool) {
	if len(t.slots) == 0 {
		t.alloc()
	}
	s := probe(t.slots, t.stamp, t.home(hi, lo), hi, lo)
	if s.stamp == t.stamp {
		return s.id, false
	}
	*s = flowSlot{hi: hi, lo: lo, stamp: t.stamp, id: t.n}
	if t.n++; 2*int(t.n) > len(t.slots) {
		t.grow()
	}
	return t.n - 1, true
}

// alloc gives an unused table its first slots.
func (t *FlowTable) alloc() {
	t.slots = make([]flowSlot, flowTableInit)
	if t.stamp == 0 {
		t.stamp = 1
	}
}

// home is the slot a key probes first: both words through a
// multiply-xorshift mix whose top bits depend on every key bit, so
// sequential addresses and ports spread as random keys do; the slot is
// the top log2(len(slots)) of them.
func (t *FlowTable) home(hi, lo uint64) int {
	h := (hi ^ t.salt) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h = (h ^ lo) * 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	return int((h >> 32) * uint64(len(t.slots)) >> 32)
}

// probe returns the slot of key (hi, lo) in the fill stamped stamp, or
// the empty slot where it belongs, searching from slot i.
func probe(slots []flowSlot, stamp uint32, i int, hi, lo uint64) *flowSlot {
	for mask := len(slots) - 1; ; i++ {
		s := &slots[i&mask]
		if s.stamp != stamp || s.hi == hi && s.lo == lo {
			return s
		}
	}
}

// grow doubles the slot array and re-places the current fill's keys;
// ids travel with their keys.
func (t *FlowTable) grow() {
	old := t.slots
	t.slots = make([]flowSlot, 2*len(old))
	for _, s := range old {
		if s.stamp == t.stamp {
			*probe(t.slots, t.stamp, t.home(s.hi, s.lo), s.hi, s.lo) = s
		}
	}
}

// FlowIndex gives every packet of a batch a dense flow id in order of
// first appearance: ID[i] is packet i's flow (4 B per packet), and
// Keys[f] is flow f's 5-tuple, copied from its first packet into a
// header-only packet (56 B per flow) that a bulk hash streams as it
// would the batch. Because ids follow first appearance, the flows of a
// prefix of the batch are a prefix of Keys.
//
// Every packet of a flow carries the same 5-tuple, so a consumer that
// acts on the 5-tuple — the sketch's hashes, the flow sampler's
// decision, a per-flow query's table probe — does its work once per
// flow and reads it per packet through ID. The engine builds one index
// per bin, before any consumer reads it, and hands it on through
// Batch.Flows. ID and Keys are read-only to consumers.
//
// An index describes the packet slice it was built from, by first
// element and length (Batch.Index checks it); rewriting those packets in
// place needs a new Build.
type FlowIndex struct {
	ID    []int32
	Keys  []Packet
	table FlowTable
	first *Packet // &pkts[0] of the indexed slice; nil when it was empty
}

// NewFlowIndex returns an empty index whose table is salted with salt.
func NewFlowIndex(salt uint64) *FlowIndex { return &FlowIndex{table: NewFlowTable(salt)} }

// Build indexes pkts, replacing the previous index. After the first
// build of a batch with more packets or flows than any before, it
// allocates nothing.
func (x *FlowIndex) Build(pkts []Packet) { x.build(pkts) }

// build is Build, returning the byte sum of pkts: the pass that reads
// every packet's 5-tuple reads its size too.
func (x *FlowIndex) build(pkts []Packet) (bytes int) {
	t := &x.table
	t.Reset()
	if len(t.slots) == 0 {
		t.alloc()
	}
	id, keys := slices.Grow(x.ID[:0], len(pkts))[:len(pkts)], x.Keys[:0]
	slots, stamp := t.slots, t.stamp
	for i := range pkts {
		p := &pkts[i]
		bytes += p.Size
		hi, lo := FlowWords(p)
		s := probe(slots, stamp, t.home(hi, lo), hi, lo)
		if s.stamp == stamp {
			id[i] = s.id
			continue
		}
		// The flow's first packet. Only its key fields are written, so
		// Keys holds no payload pointer and the store needs no barrier.
		*s = flowSlot{hi: hi, lo: lo, stamp: stamp, id: t.n}
		id[i] = t.n
		if len(keys) == cap(keys) {
			keys = slices.Grow(keys, 1)
		}
		keys = keys[:len(keys)+1]
		k := &keys[len(keys)-1]
		k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, k.Proto = p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto
		if t.n++; 2*int(t.n) > len(slots) {
			t.grow()
			slots = t.slots
		}
	}
	x.ID, x.Keys, x.first = id, keys, nil
	if len(pkts) > 0 {
		x.first = &pkts[0]
	}
	return bytes
}

// describes reports whether x indexes pkts: the slice it was built from
// (or truncated to), by first element and length.
func (x *FlowIndex) describes(pkts []Packet) bool {
	if len(pkts) != len(x.ID) {
		return false
	}
	return len(pkts) == 0 || &pkts[0] == x.first
}

// Truncate shrinks the index to the first n packets (n <= len(ID)) of
// the batch it describes, dropping the flows first seen after them: the
// index of a tail-dropped batch, without a second pass over it.
func (x *FlowIndex) Truncate(n int) {
	if n >= len(x.ID) {
		return
	}
	nf := 0 // ids follow first appearance: the prefix's flows are 0 … its largest id
	for _, f := range x.ID[:n] {
		nf = max(nf, int(f)+1)
	}
	x.ID, x.Keys = x.ID[:n], x.Keys[:nf]
}
