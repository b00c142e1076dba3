package queries

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Equivalence oracles for the per-packet state kernels: the Process
// loops as they stood before the packed flow table, the single-probe
// idiom and the 2-gram filter, kept here verbatim. Where the state
// itself is unchanged (the runtime maps of top-k, autofocus and
// high-watermark, pattern-search's skip table) the oracle loop drives a
// second instance of the real query; flows and p2p-detector changed
// representation, so their oracles carry the old maps.

type parentKernel struct {
	process func(b *pkt.Batch, rate float64) Ops
	flush   func() (Result, Ops)
	shedTo  func(f float64) // the custom shedder only
}

// parentOf returns the oracle for a fresh instance of q's kind, or false
// for the four queries whose loops did not change.
func parentOf(q Query, cfg Config) (parentKernel, bool) {
	switch q.(type) {
	case *Flows:
		o := &parentFlows{table: map[pkt.FlowKey]struct{}{}}
		return parentKernel{process: o.process, flush: o.flush}, true
	case *P2PDetector:
		o := &parentP2P{h3: hash.NewH3(cfg.Seed + 0x9279), flows: map[pkt.FlowKey]*parentP2PState{}, inspectFrac: 1}
		return parentKernel{o.process, o.flush, func(f float64) { o.inspectFrac = f }}, true
	case *TopK:
		o := NewTopK(cfg, 0)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentDstBytesProcess(o.table, b, rate) }, flush: o.Flush}, true
	case *Autofocus:
		o := NewAutofocus(cfg, 0)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentDstBytesProcess(o.table, b, rate) }, flush: o.Flush}, true
	case *HighWatermark:
		o := NewHighWatermark(cfg)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentHighWatermarkProcess(o, b, rate) }, flush: o.Flush}, true
	case *PatternSearch:
		o := NewPatternSearch(cfg, nil)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentPatternProcess(o, b, rate) }, flush: o.Flush}, true
	}
	return parentKernel{}, false
}

type parentFlows struct {
	table map[pkt.FlowKey]struct{}
	est   float64
}

func (q *parentFlows) process(b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	var ops Ops
	for i := range b.Pkts {
		k := b.Pkts[i].FlowKey()
		ops.Lookups++
		if _, ok := q.table[k]; !ok {
			q.table[k] = struct{}{}
			q.est += inv
			ops.Inserts++
		}
	}
	ops.Packets = int64(len(b.Pkts))
	return ops
}

func (q *parentFlows) flush() (Result, Ops) {
	n := len(q.table)
	clear(q.table)
	est := q.est
	q.est = 0
	return FlowsResult{Flows: est}, Ops{Flushes: int64(n)}
}

// parentDstBytesProcess is the loop top-k and autofocus shared word for
// word: a probe to count the insert, then a second to add.
func parentDstBytesProcess(table map[uint32]float64, b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	var ops Ops
	for i := range b.Pkts {
		p := &b.Pkts[i]
		ops.Lookups++
		if _, ok := table[p.DstIP]; !ok {
			ops.Inserts++
		}
		table[p.DstIP] += float64(p.Size) * inv
	}
	ops.Packets = int64(len(b.Pkts))
	return ops
}

func parentHighWatermarkProcess(q *HighWatermark, b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	for i := range b.Pkts {
		p := &b.Pkts[i]
		q.buckets[p.Ts/int64(hwmBucket)] += float64(p.Size) * inv
	}
	n := int64(len(b.Pkts))
	return Ops{Packets: n, Lookups: n}
}

// parentSearch is the plain Horspool scan over the whole text.
func parentSearch(q *PatternSearch, text []byte) (found bool, scanned int) {
	m := len(q.pattern)
	n := len(text)
	if m == 0 || n < m {
		return false, n
	}
	i := 0
	for i <= n-m {
		j := m - 1
		for j >= 0 && text[i+j] == q.pattern[j] {
			j--
		}
		if j < 0 {
			return true, n
		}
		i += q.skip[text[i+m-1]]
	}
	return false, n
}

func parentPatternProcess(q *PatternSearch, b *pkt.Batch, _ float64) Ops {
	var ops Ops
	for i := range b.Pkts {
		p := &b.Pkts[i]
		q.processed++
		if len(p.Payload) > 0 {
			found, scanned := parentSearch(q, p.Payload)
			ops.Bytes += int64(scanned)
			if found {
				q.matches++
			}
		}
	}
	ops.Packets = int64(len(b.Pkts))
	return ops
}

type parentP2PState struct {
	inspected int
	isP2P     bool
	decided   bool
}

type parentP2P struct {
	h3           *hash.H3
	flows        map[pkt.FlowKey]*parentP2PState
	inspectFrac  float64
	sigDetected  float64
	portDetected float64
}

func (q *parentP2P) inspects(k pkt.FlowKey) bool {
	if q.inspectFrac >= 1 {
		return true
	}
	if q.inspectFrac <= 0 {
		return false
	}
	return q.h3.Unit(k[:]) < q.inspectFrac
}

func (q *parentP2P) process(b *pkt.Batch, _ float64) Ops {
	var ops Ops
	for i := range b.Pkts {
		p := &b.Pkts[i]
		k := p.FlowKey()
		ops.Lookups++
		st, ok := q.flows[k]
		if !ok {
			st = &parentP2PState{}
			q.flows[k] = st
			ops.Inserts++
			if !q.inspects(k) {
				// Custom-shed flow: classify by port alone, now.
				st.decided = true
				if isP2PPort(p.DstPort) {
					st.isP2P = true
					q.portDetected++
				}
			}
		}
		if st.decided || len(p.Payload) == 0 {
			continue
		}
		// Signature scan of an undecided, inspected flow.
		ops.Bytes += int64(len(p.Payload)) * int64(len(p2pSignatures))
		for _, sig := range p2pSignatures {
			if bytes.Contains(p.Payload, sig) {
				st.isP2P = true
				st.decided = true
				q.sigDetected++
				break
			}
		}
		if !st.decided {
			st.inspected++
			if st.inspected >= p2pInspectPackets {
				st.decided = true // non-P2P: signatures absent
			}
		}
	}
	ops.Packets = int64(len(b.Pkts))
	return ops
}

func (q *parentP2P) flush() (Result, Ops) {
	detected := make(map[pkt.FlowKey]bool)
	for k, st := range q.flows {
		if st.isP2P {
			detected[k] = true
		}
	}
	count := q.sigDetected + q.portDetected
	n := int64(len(q.flows))
	clear(q.flows)
	q.sigDetected, q.portDetected = 0, 0
	return P2PResult{Detected: detected, Count: count}, Ops{Flushes: n}
}

// thinned returns what the engine hands a query of each shedding method
// at rate: batches thinned by packet or flow sampling, and the full
// batches for a custom shedder (which is told the rate instead).
func thinned(full []pkt.Batch, rate float64) map[sampling.Method][]pkt.Batch {
	out := map[sampling.Method][]pkt.Batch{sampling.Custom: full}
	ps, fs := sampling.NewPacketSampler(1), sampling.NewFlowSampler(1)
	for i := range full {
		b := &full[i]
		out[sampling.Packet] = append(out[sampling.Packet], pkt.Batch{Start: b.Start, Bin: b.Bin, Pkts: ps.SampleInto(nil, b.Pkts, rate)})
		out[sampling.Flow] = append(out[sampling.Flow], pkt.Batch{Start: b.Start, Bin: b.Bin, Pkts: fs.SampleInto(nil, b.Pkts, rate)})
	}
	return out
}

// spoofedBatch is a DDoS-shaped bin: n small packets at one victim from
// sequential source addresses and ports, every one a new 5-tuple.
func spoofedBatch(start time.Duration, n int) pkt.Batch {
	b := pkt.Batch{Start: start, Bin: 100 * time.Millisecond}
	for i := 0; i < n; i++ {
		b.Pkts = append(b.Pkts, pkt.Packet{
			Ts:    int64(start) + int64(i)*int64(b.Bin)/int64(n),
			SrcIP: pkt.IPv4(198, 18, 0, 0) + uint32(i), DstIP: pkt.IPv4(147, 83, 1, 1),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: pkt.ProtoTCP, TCPFlags: pkt.FlagSYN, Size: 40,
		})
	}
	return b
}

func TestQueryKernelsMatchParent(t *testing.T) {
	const perInterval = 10
	full := trace.Record(trace.NewGenerator(trace.CESCA2(7, 3*time.Second, 1)))
	if len(full) < 3*perInterval {
		t.Fatalf("trace has %d bins, want three intervals", len(full))
	}
	// The spoofed bin lands mid-trace so it shares an interval with
	// ordinary traffic and the tables carry its growth into the next one.
	at := perInterval + 4
	full = append(full[:at:at], append([]pkt.Batch{spoofedBatch(full[at].Start, 50000)}, full[at:]...)...)

	cfg := Config{Seed: 11}
	for _, rate := range []float64{1, 0.5, 0.07} {
		batches := thinned(full, rate)
		for _, q := range FullSet(cfg) {
			old, ok := parentOf(q, cfg)
			if !ok {
				continue
			}
			if cs, ok := q.(interface{ ShedTo(float64) }); ok {
				cs.ShedTo(rate)
				old.shedTo(rate)
			}
			in := batches[q.Method()]
			var prev Result
			for i := range in {
				got, want := q.Process(&in[i], rate), old.process(&in[i], rate)
				if got != want {
					t.Fatalf("%s rate %v bin %d: ops %+v, parent %+v", q.Name(), rate, i, got, want)
				}
				if i%perInterval != perInterval-1 && i != len(in)-1 {
					continue
				}
				var res Result
				var fops Ops
				if rec, ok := q.(ResultRecycler); ok {
					res, fops = rec.FlushInto(prev)
					prev = res
				} else {
					res, fops = q.Flush()
				}
				wres, wops := old.flush()
				if fops != wops {
					t.Fatalf("%s rate %v bin %d: flush ops %+v, parent %+v", q.Name(), rate, i, fops, wops)
				}
				if !reflect.DeepEqual(res, wres) {
					t.Fatalf("%s rate %v bin %d: result diverged from parent", q.Name(), rate, i)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// flowTable against a runtime map.

// tableModel drives a flowTable and the map it replaced side by side.
type tableModel struct {
	t    testing.TB
	tbl  flowTable
	want map[pkt.FlowKey]int // key -> dense index
}

func newTableModel(t testing.TB, seed uint64) *tableModel {
	return &tableModel{t: t, tbl: newFlowTable(seed), want: map[pkt.FlowKey]int{}}
}

func (m *tableModel) add(p pkt.Packet) {
	m.t.Helper()
	k := p.FlowKey()
	wantIdx, seen := m.want[k]
	if !seen {
		wantIdx = len(m.want)
		m.want[k] = wantIdx
	}
	idx, inserted := m.tbl.add(&p)
	if idx != wantIdx || inserted == seen {
		m.t.Fatalf("add(%v) = (%d, %v), want (%d, %v)", k, idx, inserted, wantIdx, !seen)
	}
}

func (m *tableModel) clear() {
	m.tbl.clear()
	clear(m.want)
}

// audit checks the slot array itself: every key of the model in exactly
// one slot under its index, nothing else, load at most one half. It
// returns the mean number of slots a lookup of a present key examines.
func (m *tableModel) audit() float64 {
	m.t.Helper()
	if m.tbl.n != len(m.want) || 2*m.tbl.n > len(m.tbl.slots) {
		m.t.Fatalf("n = %d in %d slots, model holds %d", m.tbl.n, len(m.tbl.slots), len(m.want))
	}
	occupied, probes := 0, 0
	for i := range m.tbl.slots {
		s := &m.tbl.slots[i]
		if s.lo == 0 {
			continue
		}
		occupied++
		if idx, ok := m.want[s.key()]; !ok || idx != int(s.idx) {
			m.t.Fatalf("slot %d holds %v at index %d; model says %d, %v", i, s.key(), s.idx, idx, ok)
		}
		probes += (i-m.tbl.home(s.hi, s.lo))&(len(m.tbl.slots)-1) + 1
	}
	if occupied != len(m.want) {
		m.t.Fatalf("%d occupied slots for %d keys", occupied, len(m.want))
	}
	return float64(probes) / float64(max(occupied, 1))
}

func TestFlowTableMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		m := newTableModel(t, 1)
		rng := hash.NewXorShift(5)
		for i := 0; i < 20000; i++ {
			// A small address space, so about half the adds are hits.
			v := rng.Uint64()
			m.add(pkt.Packet{SrcIP: uint32(v) & 0x3f, DstIP: uint32(v>>8) & 0x3, SrcPort: uint16(v>>16) & 0x7,
				DstPort: uint16(v>>24) & 0x3, Proto: uint8(v>>32) & 1})
		}
		m.audit()
		for i := 0; i < 5000; i++ {
			v, w := rng.Uint64(), rng.Uint64()
			m.add(pkt.Packet{SrcIP: uint32(v), DstIP: uint32(v >> 32), SrcPort: uint16(w), DstPort: uint16(w >> 16), Proto: uint8(w >> 32)})
		}
		m.audit()
	})
	t.Run("sequential", func(t *testing.T) {
		// Source addresses counting up from the all-zero 5-tuple, then
		// addresses and ports in step as a spoofing tool emits them: a weak
		// slot hash would pile these into runs.
		m := newTableModel(t, 2)
		for i := 0; i < 3000; i++ {
			m.add(pkt.Packet{SrcIP: uint32(i)})
		}
		b := spoofedBatch(0, 50000)
		for i := range b.Pkts {
			m.add(b.Pkts[i])
		}
		for i := 0; i < 3000; i++ {
			m.add(pkt.Packet{SrcIP: uint32(i)}) // all hits
		}
		if mean := m.audit(); mean >= 2 {
			t.Fatalf("mean probe length on sequential keys = %.2f, want < 2", mean)
		}
	})
	t.Run("growth and clear", func(t *testing.T) {
		m := newTableModel(t, 3)
		for i := 0; m.tbl.n <= 4*flowTableInit; i++ { // past three doublings
			m.add(pkt.Packet{DstIP: uint32(i * 7), DstPort: uint16(i)})
			if i%97 == 0 {
				m.audit() // indices survive every re-placement
			}
		}
		slots := len(m.tbl.slots)
		if slots < 8*flowTableInit {
			t.Fatalf("%d slots after %d keys, want three doublings of %d", slots, m.tbl.n, flowTableInit)
		}
		m.clear()
		m.audit()
		for i := 0; i < 100; i++ {
			m.add(pkt.Packet{DstIP: uint32(i * 7), DstPort: uint16(i)}) // indices restart at 0
		}
		m.audit()
		if len(m.tbl.slots) != slots {
			t.Fatalf("clear changed capacity: %d -> %d slots", slots, len(m.tbl.slots))
		}
	})
}

// FuzzFlowTable reads data as a run of serialised 5-tuples (an all-ones
// key clears) and holds the table to the map's answers.
func FuzzFlowTable(f *testing.F) {
	var seq, dup []byte
	for i := 0; i < 300; i++ {
		seq = binary.BigEndian.AppendUint32(seq, uint32(i))
		seq = append(seq, make([]byte, pkt.FlowKeySize-4)...)
		dup = append(dup, 10, 0, 0, byte(i%3), 10, 0, 0, 9, 0, 80, byte(i%2), 80, pkt.ProtoTCP)
	}
	f.Add(uint64(1), seq)
	f.Add(uint64(2), dup)
	f.Add(uint64(3), append(bytes.Repeat([]byte{0xff}, pkt.FlowKeySize), seq[:10*pkt.FlowKeySize]...))
	f.Add(uint64(0), make([]byte, 2*pkt.FlowKeySize))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		m := newTableModel(t, seed)
		for ; len(data) >= pkt.FlowKeySize; data = data[pkt.FlowKeySize:] {
			k := data[:pkt.FlowKeySize]
			if bytes.Count(k, []byte{0xff}) == pkt.FlowKeySize {
				m.clear()
				continue
			}
			m.add(pkt.Packet{
				SrcIP: binary.BigEndian.Uint32(k[0:4]), DstIP: binary.BigEndian.Uint32(k[4:8]),
				SrcPort: binary.BigEndian.Uint16(k[8:10]), DstPort: binary.BigEndian.Uint16(k[10:12]), Proto: k[12],
			})
		}
		m.audit()
	})
}

// ---------------------------------------------------------------------
// PatternSearch.search against bytes.Contains.

func checkSearch(t testing.TB, q *PatternSearch, text []byte) {
	t.Helper()
	found, scanned := q.search(text)
	if want := bytes.Contains(text, q.pattern); found != want || scanned != len(text) {
		t.Fatalf("search(%q) for %q = (%v, %d), want (%v, %d)", text, q.pattern, found, scanned, want, len(text))
	}
}

// eachString calls fn with every string of length n over alphabet.
func eachString(alphabet string, n int, fn func([]byte)) {
	buf := make([]byte, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(buf)
			return
		}
		for j := 0; j < len(alphabet); j++ {
			buf[i] = alphabet[j]
			rec(i + 1)
		}
	}
	rec(0)
}

func TestPatternSearchHorspoolAgainstOracle(t *testing.T) {
	const alphabet = "abc"
	// Short patterns: every pattern against every text of length
	// 0 … 3m+2, which covers no probe, one probe, a probe in the last
	// window and a tail shorter than a stride.
	for m := 1; m <= 3; m++ {
		eachString(alphabet, m, func(pattern []byte) {
			q := NewPatternSearch(Config{}, bytes.Clone(pattern))
			for n := 0; n <= 3*m+2; n++ {
				eachString(alphabet, n, func(text []byte) { checkSearch(t, q, text) })
			}
		})
	}
	// The default pattern's length, where texts cannot be enumerated:
	// periodic and random patterns over the same three letters (so
	// partial matches and 2-gram hits are everywhere) against random
	// texts of every length 0 … 3m+2, and a pattern longer than any of
	// them.
	rng := hash.NewXorShift(3)
	letters := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	const m = 24
	patterns := [][]byte{bytes.Repeat([]byte("ab"), m/2), bytes.Repeat([]byte("a"), m), letters(m), letters(m), letters(3*m + 3)}
	for _, pattern := range patterns {
		q := NewPatternSearch(Config{}, pattern)
		for n := 0; n <= 3*m+2; n++ {
			for rep := 0; rep < 200; rep++ {
				text := letters(n)
				checkSearch(t, q, text)
				if n >= len(pattern) { // and with an occurrence somewhere
					copy(text[rng.Intn(n-len(pattern)+1):], pattern)
					checkSearch(t, q, text)
				}
			}
		}
	}
	// The generator's shape: the pattern at every offset of a snaplen
	// payload of random 7-bit bytes.
	payload := make([]byte, pkt.SnapLen)
	for i := range payload {
		payload[i] = byte(rng.Uint64()) & 0x7f
	}
	for _, pattern := range [][]byte{trace.PatternHTTP, []byte("ab"), []byte("x")} {
		q := NewPatternSearch(Config{}, pattern)
		checkSearch(t, q, payload)
		for off := 0; off+len(pattern) <= len(payload); off++ {
			text := bytes.Clone(payload)
			copy(text[off:], pattern)
			if found, _ := q.search(text); !found {
				t.Fatalf("%q planted at offset %d not found", pattern, off)
			}
			checkSearch(t, q, text)
		}
	}
}

func FuzzPatternSearch(f *testing.F) {
	f.Add([]byte("abcab"), []byte("aaaaaaabcab"))
	f.Add([]byte("abcab"), bytes.Repeat([]byte("abc"), 100))
	f.Add([]byte("ab"), []byte("ba"))
	f.Add([]byte("a"), []byte(""))
	f.Add(trace.PatternHTTP, append(bytes.Repeat([]byte("GET /index"), 9), trace.PatternHTTP...))
	f.Add([]byte{}, []byte("an empty pattern selects the default"))
	f.Fuzz(func(t *testing.T, pattern, text []byte) {
		checkSearch(t, NewPatternSearch(Config{}, pattern), text)
	})
}
