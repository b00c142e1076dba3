// Package bitmap implements the bitmap distinct-counting algorithms the
// feature-extraction subsystem relies on (thesis §3.2.1, citing Estan,
// Varghese and Fisk, "Bitmap algorithms for counting active flows on
// high speed links").
//
// Two counters are provided:
//
//   - Direct: a single bitmap evaluated with linear counting. Accurate
//     while the number of distinct items stays well below the bitmap
//     size.
//   - MultiRes: a multi-resolution bitmap — a stack of components each
//     responsible for a geometrically shrinking slice of the hash space —
//     that keeps the relative counting error roughly constant across
//     many orders of magnitude while bounding memory and guaranteeing a
//     deterministic number of memory accesses per insertion (the
//     property that makes feature extraction safe on the fast path).
//
// Both counters ingest 64-bit hashes; the caller chooses the hash
// function (the monitoring pipeline uses hash.H3).
//
// Both counters keep their set-bit counts current after every mutating
// call, so Estimate never scans the bit array, and Estimate
// reads the linear-counting estimate of a count from a table shared by
// every bitmap of the size instead of taking a logarithm. MultiRes keeps
// its books per component rather than per item: a bulk insert is one OR
// per hash, followed by one popcount pass over the components the call
// wrote, and a mask of the components that may hold a bit lets Reset
// and MergeFrom skip the rest.
package bitmap

import (
	"math"
	"math/bits"
	"sync"
)

// linearCount is the linear-counting estimator shared by both bitmap
// kinds: b * ln(b / zeros) for a b-bit map with the given number of set
// bits. A saturated bitmap (no zero bits) returns b * ln(b), the
// largest value the estimator can express.
func linearCount(size uint64, ones int) float64 {
	if ones == 0 {
		return 0 // b * ln(b/b), exactly
	}
	zeros := float64(int(size) - ones)
	b := float64(size)
	if zeros < 1 {
		zeros = 1
	}
	return b * math.Log(b/zeros)
}

// lcTables holds, per power-of-two bitmap size up to 2^16 bits, the
// linear-counting estimate of every set-bit count: est[ones] is
// linearCount(size, ones), built with that very expression the first
// time a bitmap of the size is made. An estimate is then a table read,
// bit-identical to the logarithm it replaces; the table of the engine's
// 2048-bit components is 16 KB.
var lcTables [17]struct {
	once sync.Once
	est  []float64
}

// linearCountTable returns the shared table of a bitmap size, or nil for
// a size too large to tabulate.
func linearCountTable(size uint64) []float64 {
	k := bits.TrailingZeros64(size)
	if k >= len(lcTables) {
		return nil
	}
	t := &lcTables[k]
	t.once.Do(func() {
		t.est = make([]float64, size+1)
		for ones := range t.est {
			t.est[ones] = linearCount(size, ones)
		}
	})
	return t.est
}

// estimate is linearCount(size, ones) read from tab when tab covers it.
func estimate(tab []float64, size uint64, ones int) float64 {
	if ones < len(tab) {
		return tab[ones]
	}
	return linearCount(size, ones)
}

// roundSize rounds a bit count up to a power of two, minimum 64 (one
// word), the granularity both bitmap kinds allocate at.
func roundSize(nbits int) uint64 {
	size := uint64(64)
	for size < uint64(nbits) {
		size <<= 1
	}
	return size
}

// Direct is a plain bitmap with linear-counting estimation. The zero
// value is unusable; construct with NewDirect.
type Direct struct {
	words []uint64
	size  uint64 // number of bits, power of two
	mask  uint64
	ones  int       // set-bit count, maintained incrementally
	lc    []float64 // linearCountTable(size)
}

// NewDirect returns a bitmap with at least the requested number of bits
// (rounded up to a power of two, minimum 64).
func NewDirect(nbits int) *Direct {
	size := roundSize(nbits)
	return &Direct{
		words: make([]uint64, size/64),
		size:  size,
		mask:  size - 1,
		lc:    linearCountTable(size),
	}
}

// Insert records the item identified by hash h.
func (d *Direct) Insert(h uint64) {
	bit := h & d.mask
	m := uint64(1) << (bit & 63)
	if d.words[bit>>6]&m == 0 {
		d.words[bit>>6] |= m
		d.ones++
	}
}

// Estimate returns the linear-counting estimate of the number of
// distinct items inserted: b * ln(b / zeros). A saturated bitmap (no
// zero bits) returns b * ln(b), the largest value the estimator can
// express.
func (d *Direct) Estimate() float64 {
	return estimate(d.lc, d.size, d.ones)
}

// Reset clears all bits.
func (d *Direct) Reset() {
	for i := range d.words {
		d.words[i] = 0
	}
	d.ones = 0
}

// saturationFill is the component fill ratio beyond which linear
// counting degrades too much and the estimator advances to the next
// (coarser-coverage) component.
const saturationFill = 0.9

// MultiRes is a multi-resolution bitmap. Component i (i < c-1) receives
// items whose hash has exactly i trailing one bits, i.e. a 2^-(i+1)
// slice of the hash space; the last component receives everything with
// at least c-1 trailing ones (a 2^-(c-1) slice). At estimation time the
// coarsest usable ("base") component is located and the linear-counting
// estimates of components base..c-1 are summed and rescaled by 2^base.
//
// All components live in one flat contiguous word array (component i
// occupies words [i*wpc, (i+1)*wpc)), with two invariants that hold
// whenever a method returns:
//
//   - ones[i] is the set-bit count of component i, so Estimate is
//     O(levels) instead of a full popcount scan;
//   - bit i of live is set if component i holds a set bit (it may also
//     be set for an empty component, never clear for a nonempty one), so
//     Reset and MergeFrom touch only components that were written.
//
// A component is a few hundred bytes at the geometries in use (32 words
// at the engine's 2048×16), so recounting or clearing a whole component
// costs less than tracking its words one by one on every insert.
//
// The zero value is unusable; construct with NewMultiRes.
type MultiRes struct {
	words  []uint64 // levels × wpc, flat
	ones   []int    // per-component set-bit counts
	live   uint64   // components that may hold a set bit, one bit per level
	nbits  int      // requested per-component size, kept for geometry checks
	size   uint64   // actual per-component size in bits (power of two, ≥64)
	mask   uint64
	wpc    int // words per component
	levels int
	lc     []float64 // linearCountTable(size)
}

// NewMultiRes returns a multi-resolution bitmap with the given number of
// components ("levels", 2 to 64), each holding nbits bits. Inserting
// costs one bitmap write regardless of parameters, and the counter
// never allocates after construction.
func NewMultiRes(nbits, levels int) *MultiRes {
	if levels < 2 || levels > 64 {
		panic("bitmap: MultiRes needs 2 to 64 levels")
	}
	size := roundSize(nbits)
	wpc := int(size / 64)
	return &MultiRes{
		words:  make([]uint64, levels*wpc),
		ones:   make([]int, levels),
		nbits:  nbits,
		size:   size,
		mask:   size - 1,
		wpc:    wpc,
		levels: levels,
		lc:     linearCountTable(size),
	}
}

// DefaultMultiRes returns a counter dimensioned for the monitoring
// pipeline: counting errors around 1% for cardinalities from tens to a
// few million, matching the dimensioning described in §3.2.1.
func DefaultMultiRes() *MultiRes { return NewMultiRes(4096, 16) }

// level returns the component index for hash h.
func (m *MultiRes) level(h uint64) int {
	tz := bits.TrailingZeros64(^h) // number of trailing one bits in h
	if tz >= m.levels-1 {
		return m.levels - 1
	}
	return tz
}

// Insert records the item identified by hash h.
func (m *MultiRes) Insert(h uint64) {
	lv := m.level(h)
	// The bits that chose the level are no longer uniform; index the
	// component with the remaining high bits.
	bit := (h >> uint(lv+1)) & m.mask
	idx := lv*m.wpc + int(bit>>6)
	mask := uint64(1) << (bit & 63)
	w := m.words[idx]
	if w&mask != 0 {
		return
	}
	m.words[idx] = w | mask
	m.ones[lv]++
	m.live |= 1 << uint(lv)
}

// InsertMany records every item in hs, which is what the per-aggregate
// extraction loop feeds (one hash slice per batch per aggregate). The
// loop is one unconditional OR per item — a repeated item at level 0 is
// a coin flip on real traffic, so there is no duplicate branch, and no
// count is carried through memory from one item to the next; the
// components the call wrote are recounted once at the end. Equivalent
// to calling Insert on each element.
func (m *MultiRes) InsertMany(hs []uint64) {
	words := m.words
	last, mask, wpc := m.levels-1, m.mask, m.wpc
	var touched uint64
	for _, h := range hs {
		// lv <= 63, so masking the shift counts changes nothing but lets
		// the compiler drop its shift-by-64-or-more guards.
		lv := min(bits.TrailingZeros64(^h), last)
		bit := (h >> 1 >> (uint(lv) & 63)) & mask
		words[lv*wpc+int(bit>>6)] |= 1 << (bit & 63)
		touched |= 1 << (uint(lv) & 63)
	}
	m.recount(touched)
}

// InsertSelected records hs[i] for every i in idx: InsertMany of the
// gathered hashes, without gathering them. It is how a sampled
// sub-stream's bitmap is filled straight from the hash column of the
// stream it was sampled from.
func (m *MultiRes) InsertSelected(hs []uint64, idx []int32) {
	words := m.words
	last, mask, wpc := m.levels-1, m.mask, m.wpc
	var touched uint64
	for _, i := range idx {
		h := hs[i]
		lv := min(bits.TrailingZeros64(^h), last) // as in InsertMany
		bit := (h >> 1 >> (uint(lv) & 63)) & mask
		words[lv*wpc+int(bit>>6)] |= 1 << (bit & 63)
		touched |= 1 << (uint(lv) & 63)
	}
	m.recount(touched)
}

// recount marks the components in touched live and recounts their set
// bits: the books a bulk insert settles once, at its end.
func (m *MultiRes) recount(touched uint64) {
	m.live |= touched
	for ; touched != 0; touched &= touched - 1 {
		lv := bits.TrailingZeros64(touched)
		n := 0
		for _, w := range m.component(lv) {
			n += bits.OnesCount64(w)
		}
		m.ones[lv] = n
	}
}

// component returns the words of component lv.
func (m *MultiRes) component(lv int) []uint64 {
	return m.words[lv*m.wpc : (lv+1)*m.wpc]
}

// Estimate returns the estimated number of distinct items inserted. It
// reads only the per-component set-bit counts and the size's estimate
// table — O(levels), independent of the bitmap size.
func (m *MultiRes) Estimate() float64 {
	base := 0
	for base < m.levels-1 {
		fill := float64(m.ones[base]) / float64(m.size)
		if fill <= saturationFill {
			break
		}
		base++
	}
	var sum float64
	for i := base; i < m.levels; i++ {
		sum += estimate(m.lc, m.size, m.ones[i])
	}
	return sum * math.Pow(2, float64(base))
}

// Reset clears every component. Only live components are cleared, so
// a batch that reached three levels pays for three components, not for
// the configured capacity.
func (m *MultiRes) Reset() {
	for live := m.live; live != 0; live &= live - 1 {
		lv := bits.TrailingZeros64(live)
		clear(m.component(lv))
		m.ones[lv] = 0
	}
	m.live = 0
}

// MergeFrom ORs another multi-resolution bitmap with identical geometry
// into m; the result counts the union of the two insert streams. Only
// o's live components are visited, word by word without a branch,
// recounting as it goes. It panics if the geometries differ.
func (m *MultiRes) MergeFrom(o *MultiRes) {
	if m.nbits != o.nbits || m.levels != o.levels {
		panic("bitmap: merging MultiRes bitmaps with different geometry")
	}
	for live := o.live; live != 0; live &= live - 1 {
		lv := bits.TrailingZeros64(live)
		dst, src := m.component(lv), o.component(lv)
		n := 0
		for i, w := range src {
			w |= dst[i]
			dst[i] = w
			n += bits.OnesCount64(w)
		}
		m.ones[lv] = n
	}
	m.live |= o.live
}
