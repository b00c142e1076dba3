package queries

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------
// The per-flow queries' view of a bin's flow index.

// binFlows resolves a batch to its flow index and keeps the per-batch
// memo through which a per-flow query reads it: memo[f] is the query's
// own table id for the index's flow f plus one, set at the flow's first
// packet in the query's view, 0 before it. A packet's table work is then
// one id load; the table is probed once per flow of the view, in the
// order the per-packet loop would first have probed each key, so ids,
// per-key addition order and Ops are the per-packet loop's.
type binFlows struct {
	own  *pkt.FlowIndex // the index of a batch that carries none for its packets
	memo []int32
}

func newBinFlows(seed uint64) binFlows {
	return binFlows{own: pkt.NewFlowIndex(hash.FlowSalt(seed))}
}

// index returns b's flow index (b.Flows, or one built into own) and
// clears the memo for its flows.
func (m *binFlows) index(b *pkt.Batch) *pkt.FlowIndex {
	x := b.Index(m.own)
	nf := len(x.Keys)
	m.memo = slices.Grow(m.memo[:0], nf)[:nf]
	clear(m.memo)
	return x
}

// at is the index into b.Pkts of the j-th packet of b's view.
func at(sel []int32, j int) int {
	if sel != nil {
		return int(sel[j])
	}
	return j
}

// ---------------------------------------------------------------------
// flows — per-flow classification and active flow count (Table 2.2).

// flowsResult is the per-interval answer: the sampling-corrected count
// of active 5-tuple flows.
type flowsResult struct {
	Flows float64
}

// flows tracks active 5-tuple flows in a hash table. Its cost is driven
// by flow arrivals (entry creation), which is exactly the structure the
// MLR predictor must discover (Figure 3.3). It prefers flow sampling:
// with Flowwise selection, len(table)/rate is an unbiased flow-count
// estimate, whereas packet sampling loses short flows entirely.
type flows struct {
	cfg   Config
	table pkt.FlowTable // the interval's 5-tuples
	bin   binFlows
	est   float64 // running sampling-corrected flow count
}

// NewFlows returns a flows query.
func NewFlows(cfg Config) *flows {
	return &flows{cfg: cfg, table: pkt.NewFlowTable(hash.FlowSalt(cfg.Seed)), bin: newBinFlows(cfg.Seed)}
}

// Name implements Query.
func (q *flows) Name() string { return "flows" }

// Method implements Query.
func (q *flows) Method() sampling.Method { return sampling.Flow }

// MinRate implements Query (Table 5.2).
func (q *flows) MinRate() float64 { return 0.05 }

// Interval implements Query.
func (q *flows) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query. New flows are scaled by the inverse of the
// rate in force when they were first seen: the sampling rate changes
// from batch to batch, so scaling the final table size by any single
// rate would bias the count.
//
// A packet's only work is the probe of its 5-tuple, so the table sees
// each flow of the view once: all of the index's flows, in id order,
// when the view is the whole batch, else those a selected packet
// belongs to, at its first such packet.
func (q *flows) Process(b *pkt.Batch, rate float64) Ops {
	n := b.Packets()
	if n == 0 {
		return Ops{}
	}
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	ops := Ops{Packets: int64(n), Lookups: int64(n)}
	x := q.bin.index(b)
	add := func(f int32) {
		if _, inserted := q.table.Insert(pkt.FlowWords(&x.Keys[f])); inserted {
			q.est += inv
			ops.Inserts++
		}
	}
	if b.Sel == nil {
		for f := range x.Keys {
			add(int32(f))
		}
		return ops
	}
	memo := q.bin.memo
	for _, i := range b.Sel {
		if f := x.ID[i]; memo[f] == 0 {
			memo[f] = 1
			add(f)
		}
	}
	return ops
}

// Flush implements Query. The flow table is cleared in place: its
// slots stay warm for the next interval, so steady-state processing
// stops paying table-growth allocations every interval.
func (q *flows) Flush() (Result, Ops) {
	n := q.table.Len()
	q.table.Reset()
	est := q.est
	q.est = 0
	return flowsResult{Flows: est}, Ops{Flushes: int64(n)}
}

// Error implements Query.
func (q *flows) Error(got, ref Result) float64 {
	g, r := got.(flowsResult), ref.(flowsResult)
	return stats.RelErr(g.Flows, r.Flows)
}

// Reset implements Query.
func (q *flows) Reset() {
	q.table.Reset()
	q.est = 0
}

// ---------------------------------------------------------------------
// top-k — ranking of the top-k destination addresses by volume.

// defaultTopK is the ranking depth when the constructor receives 0.
const defaultTopK = 20

// topKEntry is one ranked destination.
type topKEntry struct {
	IP    uint32
	Bytes float64
}

// topKResult is the per-interval answer: the reported ranking plus the
// full per-destination table (needed by the misranked-pair metric).
type topKResult struct {
	List []topKEntry
	All  map[uint32]float64
}

// topK ranks destination addresses by estimated byte volume. The
// interval's destinations are keys of a FlowTable (the address in the
// high word), and dsts[id] is destination id's running volume.
type topK struct {
	cfg   Config
	k     int
	table pkt.FlowTable
	dsts  []topKEntry
	bin   binFlows
	// scratch is the flush-time ranking buffer; the reported List is a
	// fresh (or recycled) copy of its head, so the buffer itself never
	// escapes into a result.
	scratch []topKEntry
}

// NewTopK returns a top-k query; k <= 0 selects defaultTopK.
func NewTopK(cfg Config, k int) *topK {
	if k <= 0 {
		k = defaultTopK
	}
	return &topK{cfg: cfg, k: k, table: pkt.NewFlowTable(hash.FlowSalt(cfg.Seed)), bin: newBinFlows(cfg.Seed)}
}

// Name implements Query.
func (q *topK) Name() string { return "top-k" }

// Method implements Query.
func (q *topK) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *topK) MinRate() float64 { return 0.57 }

// Interval implements Query.
func (q *topK) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
//
// Every packet of a flow has the flow's destination, so the table is
// probed once per flow of the view and a packet adds its bytes through
// the memo.
func (q *topK) Process(b *pkt.Batch, rate float64) Ops {
	n := b.Packets()
	if n == 0 {
		return Ops{}
	}
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	before := len(q.dsts)
	x := q.bin.index(b)
	memo := q.bin.memo
	for j := range n {
		i := at(b.Sel, j)
		f := x.ID[i]
		if memo[f] == 0 {
			ip := x.Keys[f].DstIP
			id, inserted := q.table.Insert(uint64(ip), 0)
			if inserted {
				q.dsts = append(q.dsts, topKEntry{IP: ip})
			}
			memo[f] = id + 1
		}
		q.dsts[memo[f]-1].Bytes += float64(b.Pkts[i].Size) * inv
	}
	// Ops price the per-packet loop, one lookup per packet; every entry
	// the loop created grew dsts by one, so the inserts are counted after
	// the fact.
	return Ops{Packets: int64(n), Lookups: int64(n), Inserts: int64(len(q.dsts) - before)}
}

// Flush implements Query.
func (q *topK) Flush() (Result, Ops) { return q.FlushInto(nil) }

// FlushInto implements ResultRecycler: the interval's ranking is built
// and sorted in the query's scratch buffer, and the reported list and
// per-destination map are written into prev's storage (fresh when prev
// is nil), so two result generations ping-pong with no steady-state
// allocation. Reported values are identical to Flush's.
func (q *topK) FlushInto(prev Result) (Result, Ops) {
	var pr topKResult
	if p, ok := prev.(topKResult); ok {
		pr = p
	}
	entries := append(q.scratch[:0], q.dsts...)
	slices.SortFunc(entries, func(a, b topKEntry) int {
		if a.Bytes != b.Bytes {
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.IP, b.IP)
	})
	// Charge the sort n·log n comparison steps.
	n := len(entries)
	logn := 0
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	ops := Ops{Sorts: int64(n * logn), Flushes: int64(n)}
	q.scratch = entries
	if n > q.k {
		entries = entries[:q.k]
	}
	all := pr.All
	if all == nil {
		all = make(map[uint32]float64, len(q.dsts))
	} else {
		clear(all)
	}
	for _, d := range q.dsts {
		all[d.IP] = d.Bytes
	}
	q.Reset()
	return topKResult{List: append(pr.List[:0], entries...), All: all}, ops
}

// Error implements Query: the misranked-pair metric of [12], normalized
// by k² so it composes with the [0,1] accuracy model of Chapter 5. A
// pair is misranked when a destination inside the reported list carries
// less reference traffic than one left outside it.
func (q *topK) Error(got, ref Result) float64 {
	return float64(q.misrankedPairs(got, ref)) / float64(q.k*q.k)
}

// misrankedPairs returns the raw misranked-pair count, the form Table
// 4.1 reports.
func (q *topK) misrankedPairs(got, ref Result) int {
	g, r := got.(topKResult), ref.(topKResult)
	inList := make(map[uint32]bool, len(g.List))
	minIn := 0.0
	first := true
	for _, e := range g.List {
		inList[e.IP] = true
		v := r.All[e.IP]
		if first || v < minIn {
			minIn = v
			first = false
		}
	}
	// Count outside destinations whose true volume beats an in-list
	// destination's true volume.
	pairs := 0
	for ip, v := range r.All {
		if inList[ip] {
			continue
		}
		for _, e := range g.List {
			if v > r.All[e.IP] {
				pairs++
			}
		}
	}
	if pairs > q.k*q.k {
		pairs = q.k * q.k
	}
	return pairs
}

// Reset implements Query.
func (q *topK) Reset() {
	q.table.Reset()
	q.dsts = q.dsts[:0]
}
