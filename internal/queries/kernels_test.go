package queries

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
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
// idiom, the 2-gram filter and the bin's flow index, kept here verbatim.
// Where the state itself is unchanged (the runtime maps of autofocus
// and high-watermark, pattern-search's skip table) the oracle loop
// drives a second instance of the real query; flows, top-k and
// p2p-detector changed representation, so their oracles carry the old
// maps.

type parentKernel struct {
	process func(b *pkt.Batch, rate float64) Ops
	flush   func() (Result, Ops)
	shedTo  func(f float64) // the custom shedder only
}

// parentOf returns the oracle for a fresh instance of q's kind, or false
// for the four queries whose loops did not change.
func parentOf(q Query, cfg Config) (parentKernel, bool) {
	switch q.(type) {
	case *flows:
		o := &parentFlows{table: map[pkt.FlowKey]struct{}{}}
		return parentKernel{process: o.process, flush: o.flush}, true
	case *p2pDetector:
		o := &parentP2P{h3: hash.NewH3(cfg.Seed + 0x9279), flows: map[pkt.FlowKey]*parentP2PState{}, inspectFrac: 1}
		return parentKernel{o.process, o.flush, func(f float64) { o.inspectFrac = f }}, true
	case *topK:
		o := &parentTopK{k: defaultTopK, table: map[uint32]float64{}}
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentDstBytesProcess(o.table, b, rate) }, flush: o.flush}, true
	case *autofocus:
		o := NewAutofocus(cfg, 0)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentDstBytesProcess(o.table, b, rate) }, flush: o.Flush}, true
	case *highWatermark:
		o := NewHighWatermark(cfg)
		return parentKernel{process: func(b *pkt.Batch, rate float64) Ops { return parentHighWatermarkProcess(o, b, rate) }, flush: o.Flush}, true
	case *patternSearch:
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
	return flowsResult{Flows: est}, Ops{Flushes: int64(n)}
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

// parentTopK is top-k over the runtime map it kept before the flow
// table, with the flush that ranked the map.
type parentTopK struct {
	k     int
	table map[uint32]float64
}

func (q *parentTopK) flush() (Result, Ops) {
	var entries []topKEntry
	for ip, bytes := range q.table {
		entries = append(entries, topKEntry{IP: ip, Bytes: bytes})
	}
	slices.SortFunc(entries, func(a, b topKEntry) int {
		if a.Bytes != b.Bytes {
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.IP, b.IP)
	})
	n := len(entries)
	logn := 0
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	ops := Ops{Sorts: int64(n * logn), Flushes: int64(n)}
	r := topKResult{List: entries[:min(n, q.k)], All: q.table}
	q.table = map[uint32]float64{}
	return r, ops
}

func parentHighWatermarkProcess(q *highWatermark, b *pkt.Batch, rate float64) Ops {
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
func parentSearch(q *patternSearch, text []byte) (found bool, scanned int) {
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

func parentPatternProcess(q *patternSearch, b *pkt.Batch, _ float64) Ops {
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
	return p2pResult{Detected: detected, Count: count}, Ops{Flushes: n}
}

// view is one shape in which a query may be handed a bin: got is what
// the query reads, want the gathered copy of the same packets the parent
// loop reads.
type view struct {
	name      string
	got, want []pkt.Batch
}

// views returns the shapes the engine and the callers without an index
// hand a query of method m at rate, bin by bin:
//   - "copy": the batch thinned by m's sampler, gathered, no index;
//   - "packet selection", "flow selection": the bin with its flow index,
//     read through a packet sampler's and a flow sampler's selection
//     (the whole bin at rate 1), whatever m is;
//   - "swapped": the bin indexed, then its packets replaced by the copy,
//     so the index no longer describes them.
//
// Custom shedders take the whole bin in "copy" (they are told the rate
// instead); the other shapes select for them as for anyone.
func views(full []pkt.Batch, m sampling.Method, rate float64) []view {
	ps, fs, copyPS, copyFS := sampling.NewPacketSampler(1), sampling.NewFlowSampler(1), sampling.NewPacketSampler(1), sampling.NewFlowSampler(1)
	vs := []view{{name: "copy"}, {name: "packet selection"}, {name: "flow selection"}, {name: "swapped"}}
	gather := func(b *pkt.Batch, sel []int32) pkt.Batch {
		g := pkt.Batch{Start: b.Start, Bin: b.Bin}
		for _, i := range sel {
			g.Pkts = append(g.Pkts, b.Pkts[i])
		}
		return g
	}
	for i := range full {
		b := &full[i]
		copied := pkt.Batch{Start: b.Start, Bin: b.Bin, Pkts: b.Pkts}
		switch m {
		case sampling.Packet:
			copied.Pkts = copyPS.SampleInto(nil, b.Pkts, rate)
		case sampling.Flow:
			copied.Pkts = copyFS.SampleInto(nil, b.Pkts, rate)
		}
		vs[0].got, vs[0].want = append(vs[0].got, copied), append(vs[0].want, copied)

		x := pkt.NewFlowIndex(uint64(i))
		x.Build(b.Pkts)
		for vi, sel := range [][]int32{ps.SelectInto(nil, len(b.Pkts), rate), fs.SelectInto(nil, x, rate)} {
			in := pkt.Batch{Start: b.Start, Bin: b.Bin, Pkts: b.Pkts, Flows: x, Sel: sel}
			if len(sel) == 0 {
				in.Pkts, in.Sel = nil, nil // a nil Sel reads as every packet
			}
			v := &vs[1+vi]
			v.got, v.want = append(v.got, in), append(v.want, gather(b, sel))
		}
		swapped := copied
		swapped.Pkts, swapped.Flows = slices.Clone(copied.Pkts), x
		vs[3].got, vs[3].want = append(vs[3].got, swapped), append(vs[3].want, copied)
	}
	return vs
}

// sameResult reports whether two results hold the same values, taking
// a nil and an empty slice or map alike: a recycled result reports an
// empty interval in emptied storage, the parent loop in none. Floats
// print exactly (%v is the shortest form that reads back the same), and
// map keys print sorted.
func sameResult(a, b Result) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprint(a) == fmt.Sprint(b)
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

// TestQueryKernelsMatchParent runs every query whose loop changed
// against its parent loop, bin by bin and interval by interval, in every
// shape views hands it, at rates 1, 0.5 and 0.07. The trace has a
// spoofed bin mid-interval, and ends on a one-bin interval of a single
// clean flow after an interval with P2P flows: a flush right after the
// tables' stamp reset, which must report that interval's flows alone.
func TestQueryKernelsMatchParent(t *testing.T) {
	const perInterval = 10
	full := trace.Record(trace.NewGenerator(trace.CESCA2(7, 3*time.Second, 1)))
	if len(full) < 3*perInterval {
		t.Fatalf("trace has %d bins, want three intervals", len(full))
	}
	// The spoofed bin lands mid-trace so it shares an interval with
	// ordinary traffic and the tables carry its growth into the next one.
	at := perInterval + 4
	full = append(full[:at:at], append([]pkt.Batch{spoofedBatch(full[at].Start, 50000)}, full[at:3*perInterval-1]...)...)
	full = append(full, spoofedBatch(full[len(full)-1].Start+100*time.Millisecond, 1))

	cfg := Config{Seed: 11}
	for _, rate := range []float64{1, 0.5, 0.07} {
		for qi, q := range FullSet(cfg) {
			if _, ok := parentOf(q, cfg); !ok {
				continue
			}
			for _, v := range views(full, q.Method(), rate) {
				q := FullSet(cfg)[qi]
				old, _ := parentOf(q, cfg)
				if cs, ok := q.(interface{ ShedTo(float64) }); ok {
					cs.ShedTo(rate)
					old.shedTo(rate)
				}
				var prev Result
				detected := 0 // p2p-detector flows detected before the last interval
				for i := range v.got {
					got, want := q.Process(&v.got[i], rate), old.process(&v.want[i], rate)
					if got != want {
						t.Fatalf("%s, %s, rate %v, bin %d: ops %+v, parent %+v", q.Name(), v.name, rate, i, got, want)
					}
					last := i == len(v.got)-1
					if i%perInterval != perInterval-1 && !last {
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
						t.Fatalf("%s, %s, rate %v, bin %d: flush ops %+v, parent %+v", q.Name(), v.name, rate, i, fops, wops)
					}
					if !sameResult(res, wres) {
						t.Fatalf("%s, %s, rate %v, bin %d: result diverged from parent", q.Name(), v.name, rate, i)
					}
					if r, ok := res.(p2pResult); ok {
						if !last {
							detected += len(r.Detected)
						} else if detected == 0 || len(r.Detected) != 0 {
							t.Fatalf("%s, %s, rate %v: %d flows detected before the clean interval, %d in it; want some, then none", q.Name(), v.name, rate, detected, len(r.Detected))
						}
					}
				}
			}
		}
	}
}

// FuzzFlowTable reads data as a run of serialised 5-tuples, eight to a
// bin (an all-ones key ends the interval), and holds the per-flow
// queries, whose interval state is a pkt.FlowTable salted from seed, to
// their parent loops over maps: every bin's Ops, with the bin read
// through its flow index and as a plain batch in turn, and every
// flush's Ops and result. A key whose protocol byte has its top bit set
// carries a P2P signature; an odd seed sheds the p2p-detector to half
// its flows.
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
		cfg := Config{Seed: seed}
		qs := []Query{NewFlows(cfg), NewTopK(cfg, defaultTopK), NewP2PDetector(cfg)}
		olds := make([]parentKernel, len(qs))
		for i, q := range qs {
			olds[i], _ = parentOf(q, cfg)
		}
		if seed%2 == 1 {
			qs[2].(*p2pDetector).ShedTo(0.5)
			olds[2].shedTo(0.5)
		}
		x := pkt.NewFlowIndex(seed)
		var bin []pkt.Packet
		bins := 0
		process := func() {
			in := pkt.Batch{Bin: 100 * time.Millisecond, Pkts: bin}
			if bins%2 == 0 {
				x.Build(bin)
				in.Flows = x
			}
			want := pkt.Batch{Bin: in.Bin, Pkts: bin}
			for i, q := range qs {
				if got, wops := q.Process(&in, 1), olds[i].process(&want, 1); got != wops {
					t.Fatalf("%s, bin %d: ops %+v, parent %+v", q.Name(), bins, got, wops)
				}
			}
			bin = nil
			bins++
		}
		flush := func() {
			if len(bin) > 0 {
				process()
			}
			for i, q := range qs {
				res, ops := q.Flush()
				wres, wops := olds[i].flush()
				if ops != wops {
					t.Fatalf("%s, after bin %d: flush ops %+v, parent %+v", q.Name(), bins, ops, wops)
				}
				if !sameResult(res, wres) {
					t.Fatalf("%s, after bin %d: result diverged from parent", q.Name(), bins)
				}
			}
		}
		for ; len(data) >= pkt.FlowKeySize; data = data[pkt.FlowKeySize:] {
			k := data[:pkt.FlowKeySize]
			if bytes.Count(k, []byte{0xff}) == pkt.FlowKeySize {
				flush()
				continue
			}
			p := pkt.Packet{
				SrcIP: binary.BigEndian.Uint32(k[0:4]), DstIP: binary.BigEndian.Uint32(k[4:8]),
				SrcPort: binary.BigEndian.Uint16(k[8:10]), DstPort: binary.BigEndian.Uint16(k[10:12]), Proto: k[12],
				Size: 40 + int(k[3]),
			}
			if k[12]&0x80 != 0 {
				p.Payload = trace.SigBitTorrent
			}
			if bin = append(bin, p); len(bin) == 8 {
				process()
			}
		}
		flush()
	})
}

// ---------------------------------------------------------------------
// patternSearch.search against bytes.Contains.

func checkSearch(t testing.TB, q *patternSearch, text []byte) {
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
