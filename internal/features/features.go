// Package features implements the traffic-feature extraction of thesis
// §3.2.1: for every 100 ms batch it computes the packet count, the byte
// count and, for each of the ten header aggregates of Table 3.1, four
// item counters — unique items in the batch, new items relative to the
// current measurement interval, repeated items in the batch and repeated
// items relative to the interval — for a total of 42 features.
//
// Distinct counting uses multi-resolution bitmaps so the cost is
// deterministic: the paper's one H3 hash and one bitmap write per packet
// per aggregate, which is what Ops charges. The implementation pays it
// per distinct 5-tuple instead (see Sketch), after one index probe per
// packet.
package features

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/hash"
	"repro/internal/pkt"
)

// Counter kinds per aggregate, in vector order.
const (
	kindUnique = iota
	kindNew
	kindRepeated    // packets in batch minus unique items
	kindIntRepeated // packets in batch minus new items
	kindsPerAgg
)

// NumFeatures is the length of a feature vector: packets, bytes, and
// four counters for each of the ten aggregates.
const NumFeatures = 2 + pkt.NumAggregates*kindsPerAgg

// Feature vector indices for the two scalar features.
const (
	IdxPackets = 0
	idxBytes   = 1
)

// idx returns the vector index of the given counter kind (kindUnique..
// kindIntRepeated) for aggregate a.
func idx(a pkt.Aggregate, kind int) int {
	return 2 + int(a)*kindsPerAgg + kind
}

// Vector is one batch's feature values, indexed by IdxPackets, idxBytes
// and idx.
type Vector []float64

// Name returns a short human-readable name for feature index i, in the
// style the thesis uses in Table 3.2 ("new 5-tuple", "packets", ...).
func Name(i int) string {
	switch i {
	case IdxPackets:
		return "packets"
	case idxBytes:
		return "bytes"
	}
	a := pkt.Aggregate((i - 2) / kindsPerAgg)
	switch (i - 2) % kindsPerAgg {
	case kindUnique:
		return fmt.Sprintf("unique %s", a)
	case kindNew:
		return fmt.Sprintf("new %s", a)
	case kindRepeated:
		return fmt.Sprintf("repeated %s", a)
	default:
		return fmt.Sprintf("int-repeated %s", a)
	}
}

// Batch-bitmap geometry shared by every Sketch and every Interval.
// MultiRes.MergeFrom requires identical geometry, and the sketch/finish
// split below merges sketches produced by one extractor into any
// Interval, so the dimensioning is a package constant rather than a
// per-extractor choice.
const (
	batchBits   = 2048
	batchLevels = 16
)

// bitmaps is one multi-resolution bitmap per header aggregate.
type bitmaps [pkt.NumAggregates]*bitmap.MultiRes

func newBitmaps() (bm bitmaps) {
	for a := range bm {
		bm[a] = bitmap.NewMultiRes(batchBits, batchLevels)
	}
	return bm
}

// Sketch is the per-batch half of feature extraction: the flow index
// of the packets it was filled from, for each header aggregate the
// column of their flows' finalized H3 hashes (cols[a][f] belongs to flow
// f), the multi-resolution bitmap those hashes were inserted into, and
// that bitmap's estimate. A Sketch carries no interval state, so filling
// one is a pure function of (hash seed, packet slice): it can run ahead
// of the bin that will consume it, and two sketches can be filled
// concurrently.
//
// Every aggregate key is a projection of the 5-tuple, so the packets of
// one flow share all ten hashes, and a bitmap insert is an idempotent
// OR. A fill therefore hashes and inserts each distinct 5-tuple once,
// from its first packet, and its bitmaps are bit for bit those of
// inserting every packet. Pkts and Ops still count packets: the cost
// model prices the paper's per-packet algorithm, not this one.
//
// Keeping the columns (80 B per flow) and reading the index (4 B per
// packet) is what makes a sub-stream's sketch cheap: SelectInto inserts
// the flows the selected packets belong to straight from the columns
// and Truncate re-inserts the flows of a prefix, neither touching a
// packet or an H3 table again.
//
// The ten batch estimates are taken once, by whichever call filled the
// sketch and on its goroutine; from then on the sketch is read-only, and
// every Interval that folds it reads the estimates instead of
// recomputing them.
//
// The engine keeps a sketch per bin slot, so its pipelined runner's
// front goroutine can hash bin N+1 while the back stage still reads bin
// N's sketch (DESIGN.md, "Bin pipeline").
//
// The zero value is unusable; construct with NewSketch.
type Sketch struct {
	batch bitmaps
	flows *pkt.FlowIndex              // the filled batch's: the bin's, or own
	own   *pkt.FlowIndex              // SketchInto's index, for packets that come without one
	cols  [pkt.NumAggregates][]uint64 // one row per flow of flows (none on a selection's sketch)
	n     int                         // packets represented
	est   [pkt.NumAggregates]float64  // batch[a].Estimate(), taken when filled

	seen []uint64 // SelectInto's scratch: one bit per source flow, set if selected
	sel  []int32  // SelectInto's scratch: the set bits of seen, ascending
}

// NewSketch returns an empty sketch with the package's batch-bitmap
// geometry.
func NewSketch() *Sketch { return &Sketch{batch: newBitmaps()} }

// index readies sk to be filled from the packets x indexes: bitmaps
// cleared, one column row per distinct flow (columns grow, amortized,
// only when capacity is short). x must stay unchanged while sk is read.
func (sk *Sketch) index(x *pkt.FlowIndex) {
	sk.flows = x
	nf := len(x.Keys)
	for a := range sk.cols {
		sk.batch[a].Reset()
		sk.cols[a] = slices.Grow(sk.cols[a][:0], nf)[:nf]
	}
	sk.n = len(x.ID)
}

// seal takes the batch estimates of a freshly filled sketch.
func (sk *Sketch) seal() {
	for a, m := range sk.batch {
		sk.est[a] = m.Estimate()
	}
}

// Pkts reports how many packets the sketch currently represents.
func (sk *Sketch) Pkts() int { return sk.n }

// Ops returns the hash+insert operation count the current contents cost
// (one per packet per aggregate), the unit the engine's cost model
// charges feature extraction in.
func (sk *Sketch) Ops() int64 { return int64(sk.n) * pkt.NumAggregates }

// CostPerOp is the price of one hash+insert operation in model cycles:
// what the engine charges feature extraction per Ops (Table 3.4).
const CostPerOp = 25

// SelectInto fills dst with the sketch of the sub-stream idx selects
// (packet indices into sk, as the sampling kernels produce): the flows
// those packets belong to, gathered as a bitset over flow ids, then per
// aggregate one MultiRes.InsertSelected of those flows straight from
// sk's hash column. The result — bitmaps, estimates, Pkts, Ops — is
// what SketchInto over the selected packets would produce with the
// extractor that filled sk, without reading a packet or copying a hash;
// dst keeps no hash columns, so it cannot be selected from or truncated
// in turn. dst must be distinct from sk.
func (sk *Sketch) SelectInto(dst *Sketch, idx []int32) {
	words := (len(sk.flows.Keys) + 63) / 64
	dst.seen = slices.Grow(dst.seen[:0], words)[:words]
	clear(dst.seen)
	for _, i := range idx {
		f := sk.flows.ID[i]
		dst.seen[f>>6] |= 1 << (f & 63)
	}
	dst.sel = dst.sel[:0]
	for w, word := range dst.seen {
		for ; word != 0; word &= word - 1 {
			dst.sel = append(dst.sel, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	for a := range sk.cols {
		dst.cols[a] = nil
		dst.batch[a].Reset()
		dst.batch[a].InsertSelected(sk.cols[a], dst.sel)
	}
	dst.n = len(idx)
	dst.seal()
}

// Truncate shrinks the sketch to its first n packets (n <= Pkts) by
// re-inserting the flows first seen among them: the sketch of a
// tail-dropped batch, without re-hashing it. It truncates the sketch's
// flow index too, unless that already happened.
func (sk *Sketch) Truncate(n int) {
	sk.flows.Truncate(n)
	nf := len(sk.flows.Keys) // ids follow first appearance: the prefix's flows are a prefix
	for a := range sk.cols {
		sk.cols[a] = sk.cols[a][:nf]
		sk.batch[a].Reset()
		sk.batch[a].InsertMany(sk.cols[a])
	}
	sk.n = n
	sk.seal()
}

// Extractor computes feature vectors from batches. It keeps two bitmaps
// per aggregate: one reset per batch (unique counts, held in an internal
// Sketch) and one reset per measurement interval (new counts); the
// interval bitmap is updated by ORing the batch bitmap into it, exactly
// as described in §3.2.1.
//
// The extractor is built for the fast path: per packet it pays one probe
// of the batch's flow index, and per distinct flow one field-wise H3
// hash (hash.H3.AggHashes — no key serialization) and one bitmap write
// per aggregate; Ops still counts the paper's per-packet price. The
// whole extraction allocates nothing after warm-up — Extract and
// ExtractFromSketch return an internal scratch vector that is
// overwritten by the next extraction call on the same Extractor (copy
// it to retain it; predict.History does). Use ExtractInto to supply
// your own destination.
//
// Extraction splits into two phases with different sharing rules:
//
//   - SketchInto fills a caller-owned Sketch from a packet slice. It
//     only reads the extractor's hash tables (fixed at construction),
//     so concurrent SketchInto calls on one extractor are safe as long
//     as each targets a distinct Sketch.
//   - FinishSketch folds a filled sketch into the extractor's interval
//     state and produces the feature vector. It mutates the extractor
//     and must stay single-threaded, like every other method.
//
// The zero value is unusable; construct with NewExtractor.
type Extractor struct {
	h3      [pkt.NumAggregates]*hash.H3
	sk      *Sketch // internal sketch used by Extract/ExtractInto
	iv      *Interval
	scratch Vector // returned by Extract/ExtractFromSketch
	salt    uint64 // flow-index slot placement, from the seed

	// Ops counts hash+insert operations performed, so feature
	// extraction can be charged its deterministic cost, Ops × CostPerOp
	// (Table 3.4 reads the engine's count from its snapshot).
	Ops int64
}

// NewExtractor returns an extractor whose hash functions derive from
// seed.
func NewExtractor(seed uint64) *Extractor {
	e := &Extractor{scratch: make(Vector, NumFeatures), sk: NewSketch(), iv: NewInterval(), salt: hash.FlowSalt(seed)}
	for a := range e.h3 {
		e.h3[a] = hash.NewH3(seed + uint64(a)*0x9e3779b97f4a7c15)
	}
	return e
}

// Sketch returns the extractor's internal sketch: the batch bitmaps of
// the most recent Extract/ExtractInto call. The engine hands it to
// queries that merge the full-stream batch state instead of re-hashing
// (ExtractFromSketch); it is overwritten by the next extraction on e.
func (e *Extractor) Sketch() *Sketch { return e.sk }

// StartInterval resets the per-interval state. Call it at every
// measurement-interval boundary before extracting the interval's first
// batch.
func (e *Extractor) StartInterval() { e.iv.Reset() }

// Interval is the interval half of extraction: per aggregate, the bitmap
// every batch sketch of the measurement interval is ORed into (§3.2.1),
// and the sketch's batch estimate and the interval estimate before and
// after the latest fold. An Extractor owns one. Bitmaps are pure ORs, so
// two Intervals that folded the same sketches since their Reset hold the
// same words and estimates: the engine keeps one per distinct fold
// history instead of one per query.
//
// The zero value is unusable; construct with NewInterval.
type Interval struct {
	bm                    bitmaps
	unique, before, after [pkt.NumAggregates]float64
}

// NewInterval returns an empty interval state.
func NewInterval() *Interval { return &Interval{bm: newBitmaps()} }

// Reset empties the state for a new measurement interval.
func (iv *Interval) Reset() {
	for _, m := range iv.bm {
		m.Reset()
	}
	iv.after = [pkt.NumAggregates]float64{}
}

// CopyFrom makes iv a copy of o.
func (iv *Interval) CopyFrom(o *Interval) {
	for a, m := range iv.bm {
		m.Reset()
		m.MergeFrom(o.bm[a])
	}
	iv.unique, iv.before, iv.after = o.unique, o.before, o.after
}

// Fold ORs sk's batch bitmaps into the interval bitmaps and re-estimates
// them, keeping the estimates VectorInto reads.
func (iv *Interval) Fold(sk *Sketch) {
	iv.unique, iv.before = sk.est, iv.after
	for a, m := range iv.bm {
		m.MergeFrom(sk.batch[a])
		iv.after[a] = m.Estimate()
	}
}

// VectorInto writes into v (grown if needed) the feature vector of a
// stream of npkts packets and nbytes bytes whose distinct counts are
// those of the latest fold. npkts and nbytes are the caller's because on
// the merge-only paths (rate-1 queries, sampled queries reading the
// shared shed sketch) they describe the query's view of the stream, not
// the sketch's packet count.
func (iv *Interval) VectorInto(v Vector, npkts, nbytes float64) Vector {
	v = sized(v)
	v[IdxPackets] = npkts
	v[idxBytes] = nbytes
	for a := range iv.after {
		finishAggregate(v, a, iv.unique[a], iv.after[a]-iv.before[a], npkts)
	}
	return v
}

// finishAggregate writes aggregate a's four counters into v from its
// batch estimate and the interval estimate's growth: the per-aggregate
// arithmetic of every extraction path.
func finishAggregate(v Vector, a int, unique, newItems, npkts float64) {
	if newItems < 0 {
		newItems = 0
	}
	if unique > npkts {
		unique = npkts
	}
	if newItems > unique {
		newItems = unique
	}
	agg := pkt.Aggregate(a)
	v[idx(agg, kindUnique)] = unique
	v[idx(agg, kindNew)] = newItems
	v[idx(agg, kindRepeated)] = npkts - unique
	v[idx(agg, kindIntRepeated)] = npkts - newItems
}

// ExtractFromSketch computes the feature vector of a sketch filled
// elsewhere — by another extractor, or in a pipeline ring slot —
// relative to e's own interval state: it merges the sketch's batch
// bitmaps instead of re-hashing every packet, which is exactly what a
// query whose sampling rate is 1 can do: its stream is identical to the
// full stream, so no re-extraction is needed (§4.3 — features are only
// re-extracted "after sampling"). The returned vector is e's scratch:
// it is valid until the next extraction call on e.
func (e *Extractor) ExtractFromSketch(sk *Sketch, npkts, nbytes float64) Vector {
	e.scratch = e.FinishSketchInto(e.scratch, sk, npkts, nbytes)
	return e.scratch
}

// FinishSketchInto folds a filled sketch into e's interval state and
// writes the full feature vector into v (grown if needed): the second,
// extractor-mutating half of extraction, Interval.Fold then
// Interval.VectorInto.
func (e *Extractor) FinishSketchInto(v Vector, sk *Sketch, npkts, nbytes float64) Vector {
	e.iv.Fold(sk)
	return e.iv.VectorInto(v, npkts, nbytes)
}

// Extract computes the feature vector of b. The returned vector is e's
// scratch: it is valid until the next extraction call on e (copy it to
// retain it across batches).
func (e *Extractor) Extract(b *pkt.Batch) Vector {
	e.scratch = e.ExtractInto(e.scratch, b)
	return e.scratch
}

// ExtractInto computes the feature vector of b into v, growing it if
// needed, and returns it. After warm-up the extraction performs no
// allocations: hashing is field-wise (no key serialization), the batch
// bitmaps clear only the components the previous batch reached, and the
// estimates read per-component popcounts taken once per bulk insert.
//
// Aggregates iterate in the outer loop, flows in the inner one, so each
// pass streams the batch's flows through a single H3 table and a single
// bitmap — one predictable branch and a cache-resident lookup table per
// pass, instead of cycling all ten tables through the cache per flow.
// Bitmap contents are order-independent (pure ORs), so the result is
// bit-identical to per-packet order.
func (e *Extractor) ExtractInto(v Vector, b *pkt.Batch) Vector {
	e.SketchInto(e.sk, b.Pkts)
	e.Ops += e.sk.Ops()
	return e.FinishSketchInto(v, e.sk, float64(b.Packets()), float64(b.Bytes()))
}

// SketchInto resets sk, indexes the flows of pkts into sk's own index
// and fills sk with their hashes: SketchFlows for packets that come
// without an index.
func (e *Extractor) SketchInto(sk *Sketch, pkts []pkt.Packet) {
	if sk.own == nil {
		sk.own = pkt.NewFlowIndex(e.salt)
	}
	sk.own.Build(pkts)
	e.SketchFlows(sk, sk.own)
}

// SketchFlows resets sk and fills it with the hashes of the flows x
// indexes: the first, batch-pure half of extraction. It reads only e's
// hash tables (fixed at construction) and x, and writes only sk, so
// concurrent calls on the same extractor are safe when each targets a
// distinct sketch — the contract the pipelined engine's front goroutine
// builds on. sk reads x until its next fill. It does not advance e.Ops;
// the consumer charges the cost when the sketch is folded into a bin
// (sk.Ops reports it).
//
// Aggregates iterate in the outer loop, flows in the inner one, for the
// cache behaviour documented on ExtractInto.
func (e *Extractor) SketchFlows(sk *Sketch, x *pkt.FlowIndex) {
	sk.index(x)
	for a := range sk.cols {
		sk.batch[a].InsertMany(e.h3[a].AggHashes(sk.cols[a], x.Keys, pkt.Aggregate(a)))
	}
	sk.seal()
}

// sized returns v resized to NumFeatures, reallocating only when the
// capacity is short.
func sized(v Vector) Vector {
	if cap(v) < NumFeatures {
		return make(Vector, NumFeatures)
	}
	return v[:NumFeatures]
}
