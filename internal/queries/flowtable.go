package queries

import (
	"encoding/binary"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// flowTable is the set of 5-tuples the per-flow queries keep: open
// addressing with linear probing over a power-of-two slot array held at
// load ≤ ½, the key packed into two words so a probe is two integer
// compares instead of a 13-byte hash and memequal. Every key gets a
// dense index in insertion order, which is how a query hangs state off
// a flow without a pointer per entry.
type flowTable struct {
	slots []flowSlot
	n     int
	salt  uint64 // from Config.Seed, so slot placement is not a public function of the key
}

// flowSlot is one packed 5-tuple and its dense index. lo carries
// flowOccupied, so the zero slot is empty even for the all-zero key.
type flowSlot struct {
	hi  uint64 // SrcIP<<32 | DstIP
	lo  uint64 // flowOccupied | SrcPort<<24 | DstPort<<8 | Proto
	idx uint32
}

const (
	flowOccupied  = 1 << 40
	flowTableInit = 256 // slots before the first doubling
)

func newFlowTable(seed uint64) flowTable {
	return flowTable{slots: make([]flowSlot, flowTableInit), salt: hash.Mix64(seed + 0xf10e)}
}

// home is the slot a key probes first: both words through a
// multiply-xorshift mix whose top bits depend on every key bit, so
// sequential addresses and ports spread as random keys do; the slot is
// the top log2(len(slots)) of them.
func (t *flowTable) home(hi, lo uint64) int {
	x := (hi ^ t.salt) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x = (x ^ lo) * 0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	return int((x >> 32) * uint64(len(t.slots)) >> 32)
}

// add inserts p's 5-tuple if absent and returns its dense index — the
// number of keys inserted before it since the last clear.
func (t *flowTable) add(p *pkt.Packet) (idx int, inserted bool) {
	hi := uint64(p.SrcIP)<<32 | uint64(p.DstIP)
	lo := flowOccupied | uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
	mask := len(t.slots) - 1
	for i := t.home(hi, lo); ; i++ {
		s := &t.slots[i&mask]
		if s.lo == lo && s.hi == hi {
			return int(s.idx), false
		}
		if s.lo == 0 {
			*s = flowSlot{hi: hi, lo: lo, idx: uint32(t.n)}
			break
		}
	}
	t.n++
	if 2*t.n > len(t.slots) {
		t.grow()
	}
	return t.n - 1, true
}

// grow doubles the slot array and re-places every key; dense indices
// travel with their keys.
func (t *flowTable) grow() {
	old := t.slots
	t.slots = make([]flowSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.lo == 0 {
			continue
		}
		i := t.home(s.hi, s.lo)
		for t.slots[i&mask].lo != 0 {
			i++
		}
		t.slots[i&mask] = s
	}
}

// clear empties the table and keeps its capacity.
func (t *flowTable) clear() {
	clear(t.slots)
	t.n = 0
}

// key unpacks an occupied slot into the serialised 5-tuple.
func (s *flowSlot) key() pkt.FlowKey {
	var k pkt.FlowKey
	binary.BigEndian.PutUint64(k[0:8], s.hi)
	binary.BigEndian.PutUint32(k[8:12], uint32(s.lo>>8))
	k[12] = byte(s.lo)
	return k
}
