package hash

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pkt"
)

func key(i uint64) []byte {
	k := make([]byte, pkt.FlowKeySize)
	binary.BigEndian.PutUint64(k, i)
	return k
}

func TestH3Deterministic(t *testing.T) {
	a := NewH3(7)
	b := NewH3(7)
	for i := uint64(0); i < 100; i++ {
		if a.Hash(key(i)) != b.Hash(key(i)) {
			t.Fatalf("same seed produced different hashes for key %d", i)
		}
	}
}

func TestReseedMatchesRowXOR(t *testing.T) {
	// The table from the definition: entry v of position pos is the XOR
	// of the rows of Q that v's one bits select, rows drawn in position
	// then bit order. Reseed over a used table must give exactly that.
	h := NewH3(99)
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		h.Reseed(seed)
		rng := NewXorShift(seed)
		for pos := 0; pos < pkt.FlowKeySize; pos++ {
			var rows [8]uint64
			for bit := range rows {
				rows[bit] = rng.Uint64()
			}
			for v := 0; v < 256; v++ {
				var want uint64
				for bit := 0; bit < 8; bit++ {
					if v&(1<<bit) != 0 {
						want ^= rows[bit]
					}
				}
				if got := h.table[pos][v]; got != want {
					t.Fatalf("seed %d: table[%d][%d] = %#x, want %#x", seed, pos, v, got, want)
				}
			}
		}
	}
}

func TestH3SeedsDiffer(t *testing.T) {
	a := NewH3(1)
	b := NewH3(2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.Hash(key(i)) == b.Hash(key(i)) {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("independent functions collided on %d/1000 keys", same)
	}
}

func TestH3ZeroKeyHashesToZero(t *testing.T) {
	// H3 is linear over GF(2): the all-zero key always maps to 0. This
	// is a structural property of the family, not a defect.
	h := NewH3(99)
	if got := h.Hash(make([]byte, pkt.FlowKeySize)); got != 0 {
		t.Fatalf("zero key hashed to %#x, want 0", got)
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 over GF(2) satisfies h(a XOR b) = h(a) XOR h(b).
	h := NewH3(5)
	f := func(a, b [pkt.FlowKeySize]byte) bool {
		var x [pkt.FlowKeySize]byte
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return h.Hash(x[:]) == h.Hash(a[:])^h.Hash(b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestH3UnitRange(t *testing.T) {
	h := NewH3(3)
	f := func(k [pkt.FlowKeySize]byte) bool {
		u := h.Unit(k[:])
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestH3UnitUniformity(t *testing.T) {
	// Chi-square-ish check: bucket 100k sequential keys into 16 bins;
	// each bin should get close to 1/16.
	h := NewH3(11)
	const n = 100000
	var bins [16]int
	for i := uint64(0); i < n; i++ {
		bins[int(h.Unit(key(i))*16)]++
	}
	want := float64(n) / 16
	for i, c := range bins {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bin %d has %d entries, want %.0f +/- 10%%", i, c, want)
		}
	}
}

func TestH3ShortAndLongKeys(t *testing.T) {
	h := NewH3(13)
	short := []byte{1, 2, 3}
	if h.Hash(short) == 0 {
		t.Error("short key unexpectedly hashed to 0")
	}
	long := make([]byte, pkt.FlowKeySize+5)
	long[0] = 1
	trunc := make([]byte, pkt.FlowKeySize)
	trunc[0] = 1
	if h.Hash(long) != h.Hash(trunc) {
		t.Error("long key not truncated to pkt.FlowKeySize")
	}
}

func TestH3AvalancheOnSingleBit(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits on
	// average across many keys.
	h := NewH3(17)
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		k := key(uint64(i) * 2654435761)
		h1 := h.Hash(k)
		k[i%pkt.FlowKeySize] ^= 1 << uint(i%8)
		h2 := h.Hash(k)
		d := h1 ^ h2
		for ; d != 0; d &= d - 1 {
			total++
		}
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("average flipped output bits = %.1f, want near 32", avg)
	}
}

func TestXorShiftDeterminism(t *testing.T) {
	a := NewXorShift(123)
	b := NewXorShift(123)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestXorShiftZeroSeed(t *testing.T) {
	x := NewXorShift(0)
	if x.Uint64() == 0 && x.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestXorShiftFloat64Range(t *testing.T) {
	x := NewXorShift(42)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestXorShiftIntn(t *testing.T) {
	x := NewXorShift(42)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := x.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestXorShiftIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewXorShift(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	x := NewXorShift(7)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestParetoTail(t *testing.T) {
	x := NewXorShift(9)
	const n = 100000
	xm, alpha := 1.0, 1.5
	below := 0
	for i := 0; i < n; i++ {
		v := x.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto below scale: %v", v)
		}
		// P(X <= 2) = 1 - (xm/2)^alpha ~ 0.6464 for alpha=1.5.
		if v <= 2 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.6464) > 0.01 {
		t.Errorf("P(X<=2) = %v, want ~0.6464", frac)
	}
}

func TestExpMean(t *testing.T) {
	x := NewXorShift(31)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += x.Exp(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %v, want 0.5", mean)
	}
}

func BenchmarkH3Hash(b *testing.B) {
	h := NewH3(1)
	k := key(123456789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Hash(k)
	}
}

func BenchmarkH3Reseed(b *testing.B) {
	// What every flow sampler pays at every measurement interval.
	h := NewH3(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Reseed(uint64(i))
	}
}
