package bitmap

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hash"
	"repro/internal/pkt"
)

func TestDirectEmpty(t *testing.T) {
	d := NewDirect(64)
	if got := d.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %v, want 0", got)
	}
	if d.ones != 0 {
		t.Fatalf("empty bitmap has %d ones", d.ones)
	}
}

func TestDirectRoundsUpToPowerOfTwo(t *testing.T) {
	d := NewDirect(1000)
	if d.size != 1024 {
		t.Fatalf("size = %d, want 1024", d.size)
	}
	d = NewDirect(1)
	if d.size != 64 {
		t.Fatalf("minimum size = %d, want 64", d.size)
	}
}

func TestDirectSingleItem(t *testing.T) {
	d := NewDirect(1024)
	d.Insert(12345)
	d.Insert(12345) // duplicate must not change anything
	if d.ones != 1 {
		t.Fatalf("ones = %d, want 1", d.ones)
	}
	est := d.Estimate()
	if math.Abs(est-1) > 0.01 {
		t.Fatalf("estimate = %v, want ~1", est)
	}
}

func TestDirectLinearCountingAccuracy(t *testing.T) {
	h := hash.NewH3(1)
	d := NewDirect(8192)
	const n = 2000
	buf := make([]byte, pkt.FlowKeySize)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		buf[1] = byte(i >> 8)
		buf[2] = byte(i >> 16)
		d.Insert(hash.Mix64(h.Hash(buf)))
	}
	est := d.Estimate()
	if math.Abs(est-n)/n > 0.05 {
		t.Fatalf("estimate = %v, want %d +/- 5%%", est, n)
	}
}

func TestDirectReset(t *testing.T) {
	d := NewDirect(64)
	d.Insert(1)
	d.Reset()
	if d.ones != 0 {
		t.Fatal("Reset did not clear bits")
	}
}

func TestDirectSaturatedEstimateFinite(t *testing.T) {
	d := NewDirect(64)
	for i := uint64(0); i < 64; i++ {
		d.Insert(i)
	}
	est := d.Estimate()
	if math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("saturated estimate not finite: %v", est)
	}
}

func TestMultiResNeedsTwoLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiRes(64, 1)
}

func TestMultiResEmpty(t *testing.T) {
	m := DefaultMultiRes()
	if got := m.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %v, want 0", got)
	}
}

func TestMultiResAccuracyAcrossMagnitudes(t *testing.T) {
	// The headline property: ~constant relative error from hundreds to
	// hundreds of thousands of distinct items with one configuration.
	h := hash.NewH3(2)
	buf := make([]byte, pkt.FlowKeySize)
	for _, n := range []int{100, 1000, 10000, 100000, 500000} {
		m := DefaultMultiRes()
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			buf[1] = byte(i >> 8)
			buf[2] = byte(i >> 16)
			buf[3] = byte(i >> 24)
			m.Insert(hash.Mix64(h.Hash(buf)))
		}
		est := m.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate=%.0f relErr=%.3f, want <= 0.05", n, est, relErr)
		}
	}
}

func TestMultiResDuplicatesIgnored(t *testing.T) {
	h := hash.NewH3(3)
	m := DefaultMultiRes()
	buf := make([]byte, pkt.FlowKeySize)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 500; i++ {
			buf[0] = byte(i)
			buf[1] = byte(i >> 8)
			m.Insert(hash.Mix64(h.Hash(buf)))
		}
	}
	est := m.Estimate()
	if math.Abs(est-500)/500 > 0.05 {
		t.Fatalf("estimate with duplicates = %v, want ~500", est)
	}
}

func TestMultiResMergeCountsUnion(t *testing.T) {
	h := hash.NewH3(4)
	a := DefaultMultiRes()
	b := DefaultMultiRes()
	buf := make([]byte, pkt.FlowKeySize)
	// a gets items [0,3000), b gets [2000,5000): union is 5000.
	for i := 0; i < 3000; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		a.Insert(hash.Mix64(h.Hash(buf)))
	}
	for i := 2000; i < 5000; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		b.Insert(hash.Mix64(h.Hash(buf)))
	}
	a.MergeFrom(b)
	est := a.Estimate()
	if math.Abs(est-5000)/5000 > 0.05 {
		t.Fatalf("union estimate = %v, want ~5000", est)
	}
}

func TestMultiResMergePanicsOnGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiRes(64, 4).MergeFrom(NewMultiRes(64, 5))
}

func TestMultiResReset(t *testing.T) {
	m := NewMultiRes(64, 4)
	m.Insert(123)
	m.Reset()
	if m.Estimate() != 0 {
		t.Fatal("Reset did not clear the counter")
	}
}

func TestMultiResLevelDistribution(t *testing.T) {
	// Level i (i < last) should receive a 2^-(i+1) slice of hash space.
	m := NewMultiRes(64, 8)
	counts := make([]int, 8)
	rng := hash.NewXorShift(5)
	const n = 1 << 18
	for i := 0; i < n; i++ {
		counts[m.level(rng.Uint64())]++
	}
	for i := 0; i < 6; i++ {
		want := float64(n) / math.Pow(2, float64(i+1))
		if math.Abs(float64(counts[i])-want) > want*0.1+10 {
			t.Errorf("level %d count = %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestMultiResMergeCommutative(t *testing.T) {
	// Estimate(a OR b) must equal Estimate(b OR a).
	f := func(xs, ys []uint64) bool {
		a1 := NewMultiRes(256, 8)
		b1 := NewMultiRes(256, 8)
		a2 := NewMultiRes(256, 8)
		b2 := NewMultiRes(256, 8)
		for _, x := range xs {
			a1.Insert(x)
			a2.Insert(x)
		}
		for _, y := range ys {
			b1.Insert(y)
			b2.Insert(y)
		}
		a1.MergeFrom(b1)
		b2.MergeFrom(a2)
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiResMonotoneUnderInsertionProperty(t *testing.T) {
	// Inserting more items never decreases the estimate by a meaningful
	// amount (small decreases can't happen at all: set bits only grow).
	m := NewMultiRes(256, 8)
	rng := hash.NewXorShift(6)
	prev := 0.0
	for i := 0; i < 5000; i++ {
		m.Insert(rng.Uint64())
		if i%500 == 0 {
			est := m.Estimate()
			if est < prev {
				t.Fatalf("estimate decreased from %v to %v", prev, est)
			}
			prev = est
		}
	}
}

// scanOnes popcounts a word slice — the reference the incremental
// counters are checked against.
func scanOnes(words []uint64) int {
	n := 0
	for _, w := range words {
		n += popcount(w)
	}
	return n
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

func TestDirectOnesIncremental(t *testing.T) {
	// The incremental set-bit count must track the actual words through
	// inserts (including duplicates) and resets.
	d := NewDirect(512)
	rng := hash.NewXorShift(11)
	for i := 0; i < 2000; i++ {
		d.Insert(rng.Uint64() % 700) // force collisions
		if got, want := d.ones, scanOnes(d.words); got != want {
			t.Fatalf("step %d: Ones = %d, scan = %d", i, got, want)
		}
	}
	d.Reset()
	if d.ones != 0 || scanOnes(d.words) != 0 {
		t.Fatal("Reset left bits or a stale count behind")
	}
}

// refMultiRes is the pre-flat-layout MultiRes algorithm, one Direct per
// component, kept as the equivalence oracle for the rewrite.
type refMultiRes struct {
	comps  []*Direct
	levels int
}

func newRefMultiRes(nbits, levels int) *refMultiRes {
	r := &refMultiRes{comps: make([]*Direct, levels), levels: levels}
	for i := range r.comps {
		r.comps[i] = NewDirect(nbits)
	}
	return r
}

func (r *refMultiRes) level(h uint64) int {
	lv := 0
	for lv < r.levels-1 && h&(1<<uint(lv)) != 0 {
		lv++
	}
	return lv
}

func (r *refMultiRes) Insert(h uint64) {
	lv := r.level(h)
	r.comps[lv].Insert(h >> uint(lv+1))
}

func (r *refMultiRes) Estimate() float64 {
	base := 0
	for base < r.levels-1 {
		fill := float64(scanOnes(r.comps[base].words)) / float64(r.comps[base].size)
		if fill <= saturationFill {
			break
		}
		base++
	}
	var sum float64
	for i := base; i < r.levels; i++ {
		sum += linearCount(r.comps[i].size, scanOnes(r.comps[i].words))
	}
	return sum * math.Pow(2, float64(base))
}

func TestMultiResMatchesReferenceImplementation(t *testing.T) {
	// The flat-layout counter must be bit-identical to the per-component
	// Direct implementation across inserts, resets and merges.
	f := func(xs, ys []uint64, seed uint64) bool {
		m := NewMultiRes(256, 8)
		ref := newRefMultiRes(256, 8)
		for _, x := range xs {
			m.Insert(x)
			ref.Insert(x)
		}
		if m.Estimate() != ref.Estimate() {
			return false
		}
		m.Reset()
		ref = newRefMultiRes(256, 8)
		other := NewMultiRes(256, 8)
		for _, y := range ys {
			other.Insert(y)
			ref.Insert(y)
		}
		m.MergeFrom(other)
		return m.Estimate() == ref.Estimate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkBooks verifies MultiRes's two invariants against a scan of the
// flat array: ones[lv] is component lv's popcount, and every component
// that holds a bit is in live.
func checkBooks(t *testing.T, when string, m *MultiRes) {
	t.Helper()
	for lv := 0; lv < m.levels; lv++ {
		want := scanOnes(m.words[lv*m.wpc : (lv+1)*m.wpc])
		if m.ones[lv] != want {
			t.Fatalf("%s: component %d ones = %d, scan = %d", when, lv, m.ones[lv], want)
		}
		if want != 0 && m.live&(1<<uint(lv)) == 0 {
			t.Fatalf("%s: component %d holds %d bits but is not live", when, lv, want)
		}
	}
}

func TestMultiResBooksUnderInterleaving(t *testing.T) {
	// Any interleaving of the four mutators must leave the per-component
	// books exact; InsertMany lands on empty and on non-empty bitmaps.
	m := NewMultiRes(256, 8)
	o := NewMultiRes(256, 8)
	rng := hash.NewXorShift(13)
	hs := make([]uint64, 0, 64)
	for step := 0; step < 4000; step++ {
		switch op := rng.Uint64() % 16; {
		case op < 6:
			m.Insert(rng.Uint64())
		case op < 11:
			hs = hs[:0]
			for n := rng.Uint64() % 64; n > 0; n-- {
				hs = append(hs, rng.Uint64())
			}
			m.InsertMany(hs)
			o.InsertMany(hs[:len(hs)/2])
		case op < 14:
			o.Insert(rng.Uint64())
			m.MergeFrom(o)
		case op < 15:
			o.Reset()
			checkBooks(t, "other after Reset", o)
		default:
			m.Reset()
			if m.live != 0 || scanOnes(m.words) != 0 {
				t.Fatalf("step %d: Reset left live=%#x, %d bits", step, m.live, scanOnes(m.words))
			}
		}
		checkBooks(t, "after step", m)
	}
}

// sameAsSingle reports how InsertMany(hs) onto a bitmap already holding
// pre differs from one Insert per hash and from refMultiRes: words,
// counts and Estimate must all agree. It returns "" when they do.
func sameAsSingle(nbits, levels int, pre, hs []uint64) string {
	bulk := NewMultiRes(nbits, levels)
	single := NewMultiRes(nbits, levels)
	ref := newRefMultiRes(nbits, levels)
	bulk.InsertMany(pre)
	for _, h := range pre {
		single.Insert(h)
		ref.Insert(h)
	}
	bulk.InsertMany(hs)
	for _, h := range hs {
		single.Insert(h)
		ref.Insert(h)
	}
	for i, w := range bulk.words {
		if w != single.words[i] {
			return "words differ"
		}
		if w != ref.comps[i/bulk.wpc].words[i%bulk.wpc] {
			return "words differ from reference"
		}
	}
	for lv, n := range bulk.ones {
		if n != single.ones[lv] || n != ref.comps[lv].ones {
			return "counts differ"
		}
	}
	if bulk.live != single.live {
		return "live masks differ"
	}
	if e := bulk.Estimate(); e != single.Estimate() || e != ref.Estimate() {
		return "estimates differ"
	}
	return ""
}

func FuzzMultiResBulkEqualsSingle(f *testing.F) {
	// The hashes are the recurrence x -> x*mul + base from base. Seeds,
	// which plain go test runs: the all-ones hash (last component, shift
	// by levels), the zero hash, one value repeated (mul 0, the shape of
	// the AggProto column), a counter (mul 1), and two LCG streams for
	// hashes spread over every component.
	f.Add(uint64(math.MaxUint64), uint64(0), uint8(1), uint8(3))
	f.Add(uint64(0), uint64(0), uint8(0), uint8(200))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(0), uint8(40), uint8(255))
	f.Add(uint64(0x0101010101010101), uint64(1), uint8(7), uint8(64))
	f.Add(uint64(1442695040888963407), uint64(6364136223846793005), uint8(100), uint8(255))
	f.Add(uint64(0xda942042e4dd58b5), uint64(0x2545f4914f6cdd1d), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, base, mul uint64, npre, n uint8) {
		hs := make([]uint64, int(npre)+int(n))
		x := base
		for i := range hs {
			hs[i] = x
			x = x*mul + base
		}
		for _, levels := range []int{2, 16, 64} {
			if diff := sameAsSingle(128, levels, hs[:npre], hs[npre:]); diff != "" {
				t.Fatalf("levels %d: %s", levels, diff)
			}
		}
	})
}

// FuzzInsertSelected: inserting a selection straight from a hash
// column is InsertMany of the gathered hashes — words, books and
// estimate — onto an empty and onto a partly filled bitmap, for
// selections in any order and with repeats. Hashes are the recurrence
// of FuzzMultiResBulkEqualsSingle; each byte of sel picks one of them.
func FuzzInsertSelected(f *testing.F) {
	f.Add(uint64(math.MaxUint64), uint64(0), uint8(3), []byte{0, 1, 2})
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(0), uint8(40), []byte{})
	f.Add(uint64(1442695040888963407), uint64(6364136223846793005), uint8(255), []byte("ascending? no: any order, repeats"))
	f.Add(uint64(0xda942042e4dd58b5), uint64(0x2545f4914f6cdd1d), uint8(200), []byte{1, 3, 5, 7, 9, 11, 13, 17, 19, 23, 199})
	f.Fuzz(func(t *testing.T, base, mul uint64, n uint8, sel []byte) {
		hs := make([]uint64, n)
		x := base
		for i := range hs {
			hs[i] = x
			x = x*mul + base
		}
		var idx []int32
		var gathered []uint64
		for _, b := range sel {
			if n > 0 {
				idx = append(idx, int32(b)%int32(n))
				gathered = append(gathered, hs[idx[len(idx)-1]])
			}
		}
		for _, levels := range []int{2, 16, 64} {
			for _, pre := range [][]uint64{nil, hs[:n/2]} {
				bySel, many := NewMultiRes(128, levels), NewMultiRes(128, levels)
				bySel.InsertMany(pre)
				many.InsertMany(pre)
				bySel.InsertSelected(hs, idx)
				many.InsertMany(gathered)
				if !reflect.DeepEqual(bySel, many) || bySel.Estimate() != many.Estimate() {
					t.Fatalf("levels %d, %d pre-inserted: InsertSelected differs from InsertMany of the gathered hashes", levels, len(pre))
				}
			}
		}
	})
}

// TestLinearCountTable: an estimate table holds linearCount itself, bit
// for bit, at every set-bit count from empty to saturated — for the
// engine's 2048-bit components, DefaultMultiRes's 4096, SuperSources'
// 512-bit Direct and the smallest size — and both counters estimate
// from it. A size past the tables falls back to the expression.
func TestLinearCountTable(t *testing.T) {
	for _, size := range []uint64{64, 512, 2048, 4096} {
		tab := linearCountTable(size)
		if len(tab) != int(size)+1 {
			t.Fatalf("size %d: table of %d entries", size, len(tab))
		}
		for ones := 0; ones <= int(size); ones++ {
			if math.Float64bits(tab[ones]) != math.Float64bits(linearCount(size, ones)) {
				t.Fatalf("size %d, %d ones: table %v, linearCount %v", size, ones, tab[ones], linearCount(size, ones))
			}
		}
	}
	d := NewDirect(512)
	m := engineMultiRes()
	rng := hash.NewXorShift(19)
	for i := 0; i < 4000; i++ {
		h := rng.Uint64()
		d.Insert(h)
		m.Insert(h)
		if got, want := d.Estimate(), linearCount(512, d.ones); got != want {
			t.Fatalf("Direct at %d ones estimates %v, linearCount %v", d.ones, got, want)
		}
	}
	ref := newRefMultiRes(2048, 16)
	rng = hash.NewXorShift(19)
	for i := 0; i < 4000; i++ {
		ref.Insert(rng.Uint64())
	}
	if got, want := m.Estimate(), ref.Estimate(); got != want {
		t.Fatalf("MultiRes estimates %v, the per-component linearCount sum %v", got, want)
	}
	big := NewDirect(1 << 17)
	big.Insert(7)
	if big.lc != nil || big.Estimate() != linearCount(1<<17, 1) {
		t.Fatalf("a 2^17-bit Direct: table %d entries, estimate %v", len(big.lc), big.Estimate())
	}
}

func TestMultiResRefusesMoreThan64Levels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiRes(64, 65)
}

func TestMultiResNoAllocSteadyState(t *testing.T) {
	m := DefaultMultiRes()
	rng := hash.NewXorShift(17)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 2000; i++ {
			m.Insert(rng.Uint64())
		}
		m.Estimate()
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocations = %v, want 0", allocs)
	}
}

func BenchmarkMultiResInsert(b *testing.B) {
	m := DefaultMultiRes()
	rng := hash.NewXorShift(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Insert(rng.Uint64())
	}
}

func BenchmarkMultiResEstimate(b *testing.B) {
	m := DefaultMultiRes()
	rng := hash.NewXorShift(1)
	for i := 0; i < 100000; i++ {
		m.Insert(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Estimate()
	}
}

// engineMultiRes is the geometry internal/features runs.
func engineMultiRes() *MultiRes { return NewMultiRes(2048, 16) }

func BenchmarkMultiResInsertMany(b *testing.B) {
	// One engine batch: 2 500 hashes into an empty bitmap, then Reset.
	// "three-values" is the AggProto column: every write hits one of
	// three bits, the worst case for a count carried through memory.
	const n = 2500
	rng := hash.NewXorShift(1)
	uniform := make([]uint64, n)
	three := make([]uint64, n)
	vals := [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	for i := range uniform {
		uniform[i] = rng.Uint64()
		three[i] = vals[rng.Uint64()%3]
	}
	for _, c := range []struct {
		name string
		hs   []uint64
	}{{"uniform", uniform}, {"three-values", three}} {
		b.Run(c.name, func(b *testing.B) {
			m := engineMultiRes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				m.InsertMany(c.hs)
			}
		})
	}
}

// filledMultiRes returns an engine-geometry bitmap holding n random items.
func filledMultiRes(seed uint64, n int) *MultiRes {
	m := engineMultiRes()
	rng := hash.NewXorShift(seed)
	for i := 0; i < n; i++ {
		m.Insert(rng.Uint64())
	}
	return m
}

func BenchmarkMultiResMergeFrom(b *testing.B) {
	// The engine's pattern: an interval bitmap takes ten batch bitmaps
	// (100 ms bins, 1 s interval), then starts over. One op is one merge;
	// a tenth of a Reset rides along.
	var srcs [10]*MultiRes
	for i := range srcs {
		srcs[i] = filledMultiRes(uint64(i+1), 2500)
	}
	dst := engineMultiRes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(srcs) == 0 {
			dst.Reset()
		}
		dst.MergeFrom(srcs[i%len(srcs)])
	}
}

func BenchmarkMultiResReset(b *testing.B) {
	// Reset's cost depends only on which components are live, so each
	// iteration re-marks the components a 2 500-item batch reaches rather
	// than refilling them.
	live := filledMultiRes(1, 2500).live
	m := engineMultiRes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.live = live
		m.Reset()
	}
}
