package pkt

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// tableModel drives a FlowTable and the runtime map it stands for side
// by side.
type tableModel struct {
	t    testing.TB
	tbl  FlowTable
	want map[FlowKey]int32 // key -> id
}

func newTableModel(t testing.TB, salt uint64) *tableModel {
	return &tableModel{t: t, tbl: NewFlowTable(salt), want: map[FlowKey]int32{}}
}

func (m *tableModel) add(p Packet) {
	m.t.Helper()
	k := p.FlowKey()
	wantID, seen := m.want[k]
	if !seen {
		wantID = int32(len(m.want))
		m.want[k] = wantID
	}
	id, inserted := m.tbl.Insert(FlowWords(&p))
	if id != wantID || inserted == seen {
		m.t.Fatalf("Insert(%v) = (%d, %v), want (%d, %v)", k, id, inserted, wantID, !seen)
	}
}

func (m *tableModel) reset() {
	m.tbl.Reset()
	clear(m.want)
}

// slotKey unpacks a slot's two words into the 5-tuple they pack.
func slotKey(s *flowSlot) FlowKey {
	p := Packet{SrcIP: uint32(s.hi >> 32), DstIP: uint32(s.hi), SrcPort: uint16(s.lo >> 24), DstPort: uint16(s.lo >> 8), Proto: uint8(s.lo)}
	return p.FlowKey()
}

// audit checks the slot array itself: every key of the model in exactly
// one slot of the current fill under its id, no other slot of that
// fill, load at most one half. It returns the mean number of slots a
// lookup of a present key examines.
func (m *tableModel) audit() float64 {
	m.t.Helper()
	tbl := &m.tbl
	if tbl.Len() != len(m.want) || 2*tbl.Len() > max(len(tbl.slots), flowTableInit) {
		m.t.Fatalf("Len = %d in %d slots, model holds %d", tbl.Len(), len(tbl.slots), len(m.want))
	}
	current, probes := 0, 0
	for i := range tbl.slots {
		s := &tbl.slots[i]
		if s.stamp != tbl.stamp {
			continue
		}
		current++
		if id, ok := m.want[slotKey(s)]; !ok || id != s.id {
			m.t.Fatalf("slot %d holds %v at id %d; model says %d, %v", i, slotKey(s), s.id, id, ok)
		}
		probes += (i-tbl.home(s.hi, s.lo))&(len(tbl.slots)-1) + 1
	}
	if current != len(m.want) {
		m.t.Fatalf("%d slots of the current fill for %d keys", current, len(m.want))
	}
	return float64(probes) / float64(max(current, 1))
}

// spoofed is n packets at one victim from sequential source addresses
// and ports, every one a new 5-tuple, as a spoofing tool emits them.
func spoofed(n int) []Packet {
	out := make([]Packet, n)
	for i := range out {
		out[i] = Packet{SrcIP: IPv4(198, 18, 0, 0) + uint32(i), DstIP: IPv4(147, 83, 1, 1),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: ProtoTCP, Size: 40}
	}
	return out
}

func TestFlowTableMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		m := newTableModel(t, 1)
		rng := rand.New(rand.NewPCG(5, 0))
		for i := 0; i < 20000; i++ {
			// A small address space, so about half the inserts are hits.
			v := rng.Uint64()
			m.add(Packet{SrcIP: uint32(v) & 0x3f, DstIP: uint32(v>>8) & 0x3, SrcPort: uint16(v>>16) & 0x7,
				DstPort: uint16(v>>24) & 0x3, Proto: uint8(v>>32) & 1})
		}
		m.audit()
		for i := 0; i < 5000; i++ {
			v, w := rng.Uint64(), rng.Uint64()
			m.add(Packet{SrcIP: uint32(v), DstIP: uint32(v >> 32), SrcPort: uint16(w), DstPort: uint16(w >> 16), Proto: uint8(w >> 32)})
		}
		m.audit()
	})
	t.Run("sequential", func(t *testing.T) {
		// Source addresses counting up from the all-zero 5-tuple, then
		// addresses and ports in step: a weak slot hash would pile these
		// into runs.
		m := newTableModel(t, 2)
		for i := 0; i < 3000; i++ {
			m.add(Packet{SrcIP: uint32(i)})
		}
		for _, p := range spoofed(50000) {
			m.add(p)
		}
		for i := 0; i < 3000; i++ {
			m.add(Packet{SrcIP: uint32(i)}) // all hits
		}
		if mean := m.audit(); mean >= 2 {
			t.Fatalf("mean probe length on sequential keys = %.2f, want < 2", mean)
		}
	})
	t.Run("growth and reset", func(t *testing.T) {
		m := newTableModel(t, 3)
		for i := 0; m.tbl.Len() <= 4*flowTableInit; i++ { // past three doublings
			m.add(Packet{DstIP: uint32(i * 7), DstPort: uint16(i)})
			if i%97 == 0 {
				m.audit() // ids survive every re-placement
			}
		}
		slots := len(m.tbl.slots)
		if slots < 8*flowTableInit {
			t.Fatalf("%d slots after %d keys, want three doublings of %d", slots, m.tbl.Len(), flowTableInit)
		}
		m.reset()
		m.audit() // the previous fill's slots read as empty
		for i := 0; i < 100; i++ {
			m.add(Packet{DstIP: uint32(i * 7), DstPort: uint16(i)}) // ids restart at 0
		}
		m.audit()
		if len(m.tbl.slots) != slots {
			t.Fatalf("Reset changed capacity: %d -> %d slots", slots, len(m.tbl.slots))
		}
		// The stamp wraps: the slots are cleared once, or keys from 2³²
		// fills ago would read as current.
		m.tbl.stamp = ^uint32(0)
		m.reset()
		if m.tbl.stamp != 1 {
			t.Fatalf("stamp after the wrap = %d, want 1", m.tbl.stamp)
		}
		m.audit()
		for i := 0; i < 100; i++ {
			m.add(Packet{DstIP: uint32(i * 7), DstPort: uint16(i)})
		}
		m.audit()
	})
}

// checkIndex holds x, built from pkts, to the map it stands for: ids in
// order of first appearance and each flow's key its first packet's.
func checkIndex(t *testing.T, x *FlowIndex, pkts []Packet) {
	t.Helper()
	if !x.describes(pkts) {
		t.Fatalf("the index does not describe the %d packets it was built from", len(pkts))
	}
	ids := map[FlowKey]int32{}
	var keys []FlowKey
	for i := range pkts {
		k := pkts[i].FlowKey()
		id, ok := ids[k]
		if !ok {
			id = int32(len(keys))
			ids[k] = id
			keys = append(keys, k)
		}
		if x.ID[i] != id {
			t.Fatalf("packet %d has flow %d, want %d", i, x.ID[i], id)
		}
	}
	if len(x.Keys) != len(keys) {
		t.Fatalf("%d flows, want %d", len(x.Keys), len(keys))
	}
	for f, k := range keys {
		if got := x.Keys[f]; got.FlowKey() != k || got.Payload != nil || got.Size != 0 {
			t.Fatalf("flow %d's key = %+v, want the header-only %v", f, got, k)
		}
	}
}

// TestFlowIndexMatchesMap: ids follow first appearance on random,
// sequential and single-flow bins; Batch.IndexInto attaches the index
// and caches the byte sum it took; Truncate(n) is Build of the prefix;
// describes accepts the indexed slice and its truncations only.
func TestFlowIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	random := make([]Packet, 3000)
	for i := range random {
		v := rng.Uint64()
		random[i] = Packet{SrcIP: uint32(v) & 0xff, DstIP: uint32(v>>8) & 0x3, SrcPort: uint16(v >> 16 & 0x3), Proto: ProtoTCP, Payload: []byte{1}}
	}
	one := slices.Repeat([]Packet{samplePacket()}, 500)
	x, want := NewFlowIndex(1), NewFlowIndex(2)
	for _, pkts := range [][]Packet{random, spoofed(5000), one, nil, random[:1]} {
		b := Batch{Pkts: pkts}
		sum := b.Bytes()
		b = Batch{Pkts: pkts}
		b.IndexInto(x)
		if b.Flows != x || b.Index(nil) != x || b.cachedFor != len(pkts)+1 || b.Bytes() != sum {
			t.Fatalf("IndexInto: Flows %p (want %p), byte sum %d cached for %d packets, want %d for %d", b.Flows, x, b.cachedBytes, b.cachedFor-1, sum, len(pkts))
		}
		checkIndex(t, x, pkts)
		if len(pkts) > 1 && x.describes(slices.Clone(pkts)) {
			t.Fatal("the index describes a copy of the packets it was built from")
		}
		for _, n := range []int{len(pkts), len(pkts) / 2, 1, 0} {
			if n > len(pkts) {
				continue
			}
			x.Build(pkts)
			x.Truncate(n)
			want.Build(pkts[:n])
			checkIndex(t, x, pkts[:n])
			if !slices.Equal(x.ID, want.ID) || !slices.EqualFunc(x.Keys, want.Keys, func(a, b Packet) bool { return a.FlowKey() == b.FlowKey() }) {
				t.Fatalf("Truncate(%d) differs from indexing the prefix", n)
			}
			if n < len(pkts) && x.describes(pkts) {
				t.Fatalf("after Truncate(%d) the index still describes all %d packets", n, len(pkts))
			}
		}
	}
}

// TestFlowIndexGrowsOnce: the first build of a bin with more flows than
// any before grows the index once; after that neither that bin nor a
// smaller one allocates, truncation included.
func TestFlowIndexGrowsOnce(t *testing.T) {
	small := spoofed(1000)
	for i := range small {
		small[i].SrcIP, small[i].SrcPort = small[i].SrcIP&0x3f, 1024 // 64 flows
	}
	large := spoofed(20000) // every packet its own flow
	x := NewFlowIndex(2)
	x.Build(small)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x.Build(large)
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs {
		t.Fatal("the first build of a larger bin did not allocate: the index cannot have grown")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		x.Build(large)
		x.Truncate(len(large) / 2)
		x.Build(small)
	}); allocs != 0 {
		t.Fatalf("builds after the growing one allocated %v times per run, want 0", allocs)
	}
}
