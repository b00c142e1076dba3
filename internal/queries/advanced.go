package queries

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/bitmap"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------
// autofocus — high-volume traffic clusters per subnet ([55], cost: med).

// defaultAutofocusThreshold is the fraction of interval traffic a
// cluster must carry (after subtracting reported descendants) to be
// reported.
const defaultAutofocusThreshold = 0.05

// cluster is one reported traffic cluster: a destination prefix and its
// residual volume.
type cluster struct {
	Prefix uint32 // network-order prefix, host bits zero
	Len    int    // prefix length: 32, 24, 16 or 8
	Bytes  float64
}

// autofocusResult is the per-interval answer: the reported clusters in
// descending volume order.
type autofocusResult struct {
	Clusters []cluster
	Total    float64
}

// autofocus implements uni-dimensional autofocus over destination
// prefixes: per-interval byte counts are aggregated at /32 and rolled up
// to /24, /16 and /8; clusters whose residual volume (own traffic minus
// already-reported descendants) exceeds the threshold are reported,
// most-specific first.
type autofocus struct {
	cfg       Config
	threshold float64
	table     map[uint32]float64 // per-/32 bytes, scaled

	// Flush-time scratch, reused every interval so the per-flush
	// hierarchy walk stops allocating: lvlBuf[i] is the sorted
	// aggregation at levels[i] (level 0 mirrors the table) and repBuf[i]
	// the reported volumes at levels[i], also sorted by prefix. Sorted
	// slices rather than maps because the roll-up and residual
	// arithmetic is floating-point: under sampling the scaled byte
	// counts are inexact, so summing in map iteration order would make
	// every flush's low bits — and with a near-threshold cluster, the
	// reported set itself — vary from run to run.
	lvlBuf [4][]afEntry
	repBuf [4][]afEntry
}

// afEntry is one prefix's volume in the flush scratch.
type afEntry struct {
	prefix uint32
	bytes  float64
}

// NewAutofocus returns an autofocus query; threshold <= 0 selects
// defaultAutofocusThreshold.
func NewAutofocus(cfg Config, threshold float64) *autofocus {
	if threshold <= 0 {
		threshold = defaultAutofocusThreshold
	}
	return &autofocus{cfg: cfg, threshold: threshold, table: make(map[uint32]float64)}
}

// Name implements Query.
func (q *autofocus) Name() string { return "autofocus" }

// Method implements Query.
func (q *autofocus) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *autofocus) MinRate() float64 { return 0.69 }

// Interval implements Query.
func (q *autofocus) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *autofocus) Process(b *pkt.Batch, rate float64) Ops {
	inv := 1.0
	if rate > 0 && rate < 1 {
		inv = 1 / rate
	}
	before := len(q.table)
	n := b.Packets()
	for i := range n {
		p := b.At(i)
		q.table[p.DstIP] += float64(p.Size) * inv
	}
	// Inserts counted as table growth, as in topK.Process.
	return Ops{Packets: int64(n), Lookups: int64(n), Inserts: int64(len(q.table) - before)}
}

// Flush implements Query: roll the /32 table up the prefix hierarchy
// and report clusters whose residual volume exceeds the threshold.
func (q *autofocus) Flush() (Result, Ops) { return q.FlushInto(nil) }

// FlushInto implements ResultRecycler: the roll-up slices are
// query-owned scratch reused per interval, the /32 table is cleared in
// place, and the reported cluster slice reuses prev's storage when
// given. Reported values are identical to Flush's. Every accumulation
// walks prefixes in sorted order so the flush is bit-reproducible (see
// the scratch fields' comment).
func (q *autofocus) FlushInto(prev Result) (Result, Ops) {
	var clusters []cluster
	if p, ok := prev.(autofocusResult); ok {
		clusters = p.Clusters[:0]
	}

	lvl0 := q.lvlBuf[0][:0]
	for ip, v := range q.table {
		lvl0 = append(lvl0, afEntry{ip, v})
	}
	slices.SortFunc(lvl0, func(a, b afEntry) int { return cmp.Compare(a.prefix, b.prefix) })
	q.lvlBuf[0] = lvl0

	var total float64
	for i := range lvl0 {
		total += lvl0[i].bytes
	}
	thresh := q.threshold * total

	levels := [4]int{32, 24, 16, 8}
	for li := 1; li < len(levels); li++ {
		// The finer level is sorted, so each coarse prefix's children
		// form a contiguous run and the roll-up comes out sorted too.
		mask := prefixMask(levels[li])
		out := q.lvlBuf[li][:0]
		for _, e := range q.lvlBuf[li-1] {
			p := e.prefix & mask
			if n := len(out); n > 0 && out[n-1].prefix == p {
				out[n-1].bytes += e.bytes
			} else {
				out = append(out, afEntry{p, e.bytes})
			}
		}
		q.lvlBuf[li] = out
	}

	ops := Ops{Flushes: int64(len(q.table))}
	for li, plen := range levels {
		rep := q.repBuf[li][:0]
		mask := prefixMask(plen)
		for _, e := range q.lvlBuf[li] {
			residual := e.bytes
			// Subtract descendants already reported at finer levels:
			// each repBuf is sorted by prefix, so a coarse prefix's
			// descendants are the range [prefix, prefix|^mask].
			hi := e.prefix | ^mask
			for lj := 0; lj < li; lj++ {
				r := q.repBuf[lj]
				lo, _ := slices.BinarySearchFunc(r, e.prefix, func(re afEntry, p uint32) int {
					return cmp.Compare(re.prefix, p)
				})
				for k := lo; k < len(r) && r[k].prefix <= hi; k++ {
					residual -= r[k].bytes
				}
			}
			ops.Sorts++
			if residual >= thresh && thresh > 0 {
				clusters = append(clusters, cluster{Prefix: e.prefix, Len: plen, Bytes: residual})
				rep = append(rep, afEntry{e.prefix, e.bytes})
			}
		}
		q.repBuf[li] = rep
	}
	slices.SortFunc(clusters, func(a, b cluster) int {
		if a.Bytes != b.Bytes {
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		}
		if a.Len != b.Len {
			return cmp.Compare(b.Len, a.Len)
		}
		return cmp.Compare(a.Prefix, b.Prefix)
	})
	clear(q.table)
	return autofocusResult{Clusters: clusters, Total: total}, ops
}

func prefixMask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(plen))
}

// Error implements Query. The thesis measures autofocus error through
// the delta report of [55]; lacking the original tooling we use the
// Jaccard distance between reported cluster identity sets, which is 0
// for identical reports and grows as sampling perturbs the clusters
// (substitution documented in DESIGN.md).
func (q *autofocus) Error(got, ref Result) float64 {
	g, r := got.(autofocusResult), ref.(autofocusResult)
	type key struct {
		p uint32
		l int
	}
	set := make(map[key]bool, len(g.Clusters))
	for _, c := range g.Clusters {
		set[key{c.Prefix, c.Len}] = true
	}
	inter, union := 0, len(set)
	for _, c := range r.Clusters {
		k := key{c.Prefix, c.Len}
		if set[k] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Reset implements Query.
func (q *autofocus) Reset() { clear(q.table) }

// ---------------------------------------------------------------------
// super-sources — sources with the largest fan-out ([139], cost: med).

// defaultSuperSourcesTop is how many sources are reported.
const defaultSuperSourcesTop = 10

// superSource is one reported source with its estimated fan-out.
type superSource struct {
	IP     uint32
	FanOut float64
}

// superSourcesResult is the per-interval answer: the top sources by
// estimated distinct-destination count, plus the full per-source
// estimates for error evaluation.
type superSourcesResult struct {
	Top []superSource
	All map[uint32]float64
}

// superSources estimates per-source fan-out (distinct destinations)
// with a small direct bitmap per source, as in [139]. It prefers flow
// sampling: fan-out scales by the inverse flow-sampling rate.
type superSources struct {
	cfg   Config
	top   int
	table map[uint32]*bitmap.Direct
	// Packet-weighted mean sampling rate over the interval; the
	// per-source distinct sets span batches with different rates, so no
	// single batch's rate is the right corrector.
	rateSum float64
	pktSum  float64

	// free pools the per-source bitmaps across intervals (reset, not
	// reallocated, at flush) and sortScratch the flush-time ranking
	// buffer; the reported Top is a copy of its head, so the buffer
	// never escapes into a result.
	free        []*bitmap.Direct
	sortScratch []superSource
}

// NewSuperSources returns a super-sources query reporting the top n
// sources (defaultSuperSourcesTop when n <= 0).
func NewSuperSources(cfg Config, n int) *superSources {
	if n <= 0 {
		n = defaultSuperSourcesTop
	}
	return &superSources{cfg: cfg, top: n, table: make(map[uint32]*bitmap.Direct)}
}

// Name implements Query.
func (q *superSources) Name() string { return "super-sources" }

// Method implements Query.
func (q *superSources) Method() sampling.Method { return sampling.Flow }

// MinRate implements Query (Table 5.2).
func (q *superSources) MinRate() float64 { return 0.93 }

// Interval implements Query.
func (q *superSources) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *superSources) Process(b *pkt.Batch, rate float64) Ops {
	n := b.Packets()
	if rate > 0 && rate <= 1 {
		q.rateSum += rate * float64(n)
		q.pktSum += float64(n)
	}
	var ops Ops
	for i := range n {
		p := b.At(i)
		ops.Lookups++
		bm, ok := q.table[p.SrcIP]
		if !ok {
			if n := len(q.free); n > 0 {
				bm = q.free[n-1]
				q.free = q.free[:n-1]
			} else {
				bm = bitmap.NewDirect(512)
			}
			q.table[p.SrcIP] = bm
			ops.Inserts++
		}
		bm.Insert(hash.Mix64(uint64(p.DstIP)*0x9e3779b97f4a7c15 + uint64(p.DstPort)))
	}
	ops.Packets = int64(n)
	return ops
}

// Flush implements Query.
func (q *superSources) Flush() (Result, Ops) { return q.FlushInto(nil) }

// FlushInto implements ResultRecycler: the ranking is built and sorted
// in the query's scratch buffer, the reported Top and All reuse prev's
// storage (fresh when prev is nil), and the per-source bitmaps are
// reset into the free pool for the next interval. Reported values are
// identical to Flush's.
func (q *superSources) FlushInto(prev Result) (Result, Ops) {
	var pr superSourcesResult
	if p, ok := prev.(superSourcesResult); ok {
		pr = p
	}
	inv := 1.0
	if q.pktSum > 0 {
		if r := q.rateSum / q.pktSum; r > 0 && r < 1 {
			inv = 1 / r
		}
	}
	all := pr.All
	if all == nil {
		all = make(map[uint32]float64, len(q.table))
	} else {
		clear(all)
	}
	srcs := q.sortScratch[:0]
	for ip, bm := range q.table {
		f := bm.Estimate() * inv
		all[ip] = f
		srcs = append(srcs, superSource{IP: ip, FanOut: f})
	}
	slices.SortFunc(srcs, func(a, b superSource) int {
		if a.FanOut != b.FanOut {
			if a.FanOut > b.FanOut {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.IP, b.IP)
	})
	n := len(srcs)
	logn := 0
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	ops := Ops{Sorts: int64(n * logn), Flushes: int64(n)}
	q.sortScratch = srcs
	if n > q.top {
		srcs = srcs[:q.top]
	}
	for _, bm := range q.table {
		bm.Reset()
		q.free = append(q.free, bm)
	}
	clear(q.table)
	q.rateSum, q.pktSum = 0, 0
	return superSourcesResult{Top: append(pr.Top[:0], srcs...), All: all}, ops
}

// Error implements Query: the average relative error of the fan-out
// estimates over the reference's top sources; a source the sampled run
// never saw contributes error 1 ([139] metric, §2.2.1).
func (q *superSources) Error(got, ref Result) float64 {
	g, r := got.(superSourcesResult), ref.(superSourcesResult)
	if len(r.Top) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Top {
		gv, ok := g.All[s.IP]
		if !ok {
			sum++
			continue
		}
		sum += stats.RelErr(gv, s.FanOut)
	}
	return stats.Clamp(sum/float64(len(r.Top)), 0, 1)
}

// Reset implements Query.
func (q *superSources) Reset() {
	for _, bm := range q.table {
		bm.Reset()
		q.free = append(q.free, bm)
	}
	clear(q.table)
	q.rateSum, q.pktSum = 0, 0
}
