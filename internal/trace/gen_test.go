package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// digestBatches is a sha256 over every batch's start, length and packet
// count and every packet's record (header fields and payload bytes).
func digestBatches(batches []pkt.Batch) string {
	h := sha256.New()
	var buf []byte
	for i := range batches {
		b := &batches[i]
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(b.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Bin))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.Pkts)))
		for j := range b.Pkts {
			buf = appendRecord(buf, &b.Pkts[j])
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorBytesPinned holds every generated byte, packet order and
// batch boundary to fixed digests, taken from the generator as it was
// with per-byte payload loops and container/heap: a faster generator
// must produce the same traces, not merely deterministic ones. The
// presets run at scale 1, where flows due at the same nanosecond are
// common enough that a different heap tie order moves the digests.
// replay digests the pass that follows a Reset in mid-trace, when the
// abandoned flows are recycled.
func TestGeneratorBytesPinned(t *testing.T) {
	const dur = 2 * time.Second
	anomalous := CESCA2(5, dur, 0.3)
	anomalous.Anomalies = []Anomaly{
		&Worm{Start: 500 * time.Millisecond, Duration: time.Second, PPS: 2000, DstPort: 80},
		&ByteBurst{Start: time.Second, Duration: 500 * time.Millisecond, PPS: 1000, Payload: true},
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		replay bool
		digest string
	}{
		{name: "cesca1/seed1", cfg: CESCA1(1, dur, 1),
			digest: "7da55c5c447f5e8f9fc9c7ca0223fd7755dec6f1d675284e5c820102db79169e"},
		{name: "cesca1/seed2", cfg: CESCA1(2, dur, 1),
			digest: "4f8ff71979ebe1925c4d51190b25065fd69432d59fe038d9eee1b1179957f644"},
		{name: "cesca2/seed1", cfg: CESCA2(1, dur, 1),
			digest: "dab7b13fedc6ae4678ccbdf2b41bf98437618e235bf8bfd709efd62512397215"},
		{name: "cesca2/seed2", cfg: CESCA2(2, dur, 1),
			digest: "7dd77a4676ce666b2d367403e121437d40c4d44505089f09e66c9b08451c487e"},
		{name: "abilene/seed1", cfg: Abilene(1, dur, 1),
			digest: "c879cc9a4d6fce24c7414c91c1f1431b7ef84ef4dd54e076e1f9361e4372861a"},
		{name: "abilene/seed2", cfg: Abilene(2, dur, 1),
			digest: "0d72ce0cfb818ba2901436c731b5588d1c2916405bfb56f457dc0ec4eb16734b"},
		{name: "cenic/seed1", cfg: CENIC(1, dur, 1),
			digest: "752823ba6b4c74a1c94aa2d15dca61b09309e1c4ad3d73c99821a6eac9e3a2b5"},
		{name: "cenic/seed2", cfg: CENIC(2, dur, 1),
			digest: "e767c82fec77f46eb8f62e8b24d2b767770e22c224e13fc957d6cb381f3e0e2e"},
		{name: "cesca2/reset", cfg: CESCA2(3, dur, 0.3), replay: true,
			digest: "55f8c5d2da35514b5cc807ec269c9c12be5419946b0e050e4f413631a3f513b4"},
		{name: "ddos-link", cfg: AsymmetricMix(1, 4*time.Second, 0.5, 1)[0].Config,
			digest: "6800b26c3a3010bd09c50fee8398b7eaec46d057e9a333d261154030cace764c"},
		{name: "worm+byteburst", cfg: anomalous,
			digest: "82e2c20628108c367d250fce217db3315bc671a58f0a1e89eab04d0172a26dce"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGenerator(c.cfg)
			batches := Record(g)
			if c.replay {
				first := digestBatches(batches)
				for range len(batches) / 2 {
					g.NextBatch()
				}
				batches = Record(g)
				if got := digestBatches(batches); got != first {
					t.Fatalf("replay after Reset = %s, first pass %s", got, first)
				}
			}
			if got := digestBatches(batches); got != c.digest {
				t.Errorf("digest = %s, want %s", got, c.digest)
			}
		})
	}
}

// scrubByte is the payload byte rule, one byte at a time.
func scrubByte(b byte) byte {
	b &= 0x7f
	if b == 0x13 {
		b = 0x14
	}
	return b
}

// TestScrubPayloadMatchesByteRule holds the word transform to the byte
// rule for every byte value in every lane, over random neighbours, and
// for random words.
func TestScrubPayloadMatchesByteRule(t *testing.T) {
	rng := hash.NewXorShift(7)
	check := func(v uint64) {
		t.Helper()
		got := scrubPayload(v)
		for k := 0; k < 8; k++ {
			if b, want := byte(got>>(8*k)), scrubByte(byte(v>>(8*k))); b != want {
				t.Fatalf("scrubPayload(%#016x) lane %d = %#02x, want %#02x", v, k, b, want)
			}
		}
	}
	for k := 0; k < 8; k++ {
		for b := 0; b < 256; b++ {
			for _, rest := range []uint64{0, ^uint64(0), 0x1313131313131313, 0x9393939393939393, rng.Uint64()} {
				check(rest&^(0xff<<(8*k)) | uint64(b)<<(8*k))
			}
		}
	}
	for range 1 << 16 {
		check(rng.Uint64())
	}
}

// fillPayloadPerByte is the generator's payload fill as two per-byte
// loops: the oracle fillPayload's word writes are held to.
func fillPayloadPerByte(rng *hash.XorShift, n int, f *genFlow) []byte {
	buf := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			buf[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	for i := range buf {
		buf[i] &= 0x7f
		if buf[i] == 0x13 {
			buf[i] = 0x14
		}
	}
	if f.sig != nil && !f.sigSent && n >= len(f.sig) {
		copy(buf, f.sig)
		f.sigSent = true
	}
	return buf
}

// TestFillPayloadMatchesPerByteLoop compares fillPayload with the
// per-byte oracle at every payload length the generator produces, with
// and without a signature, bytes and RNG position both.
func TestFillPayloadMatchesPerByteLoop(t *testing.T) {
	g := &Generator{rng: hash.NewXorShift(11)}
	oracle := hash.NewXorShift(11)
	for n := 61; n <= pkt.SnapLen; n++ {
		for _, sig := range [][]byte{nil, SigBitTorrent, SigED2K} {
			got := g.fillPayload(n, &genFlow{sig: sig})
			want := fillPayloadPerByte(oracle, n, &genFlow{sig: sig})
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d sig=%q: fillPayload = %x, want %x", n, sig, got, want)
			}
			if g.rng.State() != oracle.State() {
				t.Fatalf("n=%d: RNG position moved from the oracle's", n)
			}
		}
	}
}

// BenchmarkGenerate records whole traces as the benchmark's set-up does
// — the 30 s CESCA-II window the replay workloads use, and the cluster
// workload's DDoS link — and reports the generator's cost per packet.
// -short shrinks both to 2 s.
func BenchmarkGenerate(b *testing.B) {
	dur := 30 * time.Second
	if testing.Short() {
		dur = 2 * time.Second
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"cesca2", CESCA2(1, dur, 1)},
		{"ddos-link", AsymmetricMix(1, dur, 0.5, 1)[0].Config},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			pkts := 0
			for b.Loop() {
				for _, batch := range Record(NewGenerator(c.cfg)) {
					pkts += len(batch.Pkts)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
		})
	}
}
