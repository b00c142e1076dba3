package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/pkt"
)

// recordedTrace writes a short payload-bearing trace and returns its
// bytes plus the expected batches.
func recordedTrace(t *testing.T, seed uint64) ([]byte, []pkt.Batch) {
	t.Helper()
	cfg := shortCfg(seed)
	cfg.Payload = true
	g := NewGenerator(cfg)
	var buf bytes.Buffer
	if err := WriteAll(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), Record(g)
}

func sameBatches(t *testing.T, got, want []pkt.Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || len(got[i].Pkts) != len(want[i].Pkts) {
			t.Fatalf("batch %d header mismatch", i)
		}
		for j := range want[i].Pkts {
			a, b := got[i].Pkts[j], want[i].Pkts[j]
			if a.Ts != b.Ts || a.SrcIP != b.SrcIP || a.DstIP != b.DstIP ||
				a.SrcPort != b.SrcPort || a.DstPort != b.DstPort ||
				a.Proto != b.Proto || a.TCPFlags != b.TCPFlags ||
				a.Size != b.Size || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("batch %d packet %d mismatch", i, j)
			}
		}
	}
}

func drain(src Source) []pkt.Batch {
	var out []pkt.Batch
	for {
		b, ok := src.NextBatch()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

func TestFileSourceMatchesReadAll(t *testing.T) {
	raw, want := recordedTrace(t, 31)
	fs, err := newFileSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if fs.TimeBin() != DefaultTimeBin {
		t.Fatalf("TimeBin = %v, want %v", fs.TimeBin(), DefaultTimeBin)
	}
	sameBatches(t, drain(fs), want)
	if fs.Err() != nil {
		t.Fatalf("clean end of file left Err = %v", fs.Err())
	}
	// Reset must replay identically — that is what makes a FileSource a
	// deterministic Source usable for reference runs.
	fs.Reset()
	sameBatches(t, drain(fs), want)
	if fs.Err() != nil {
		t.Fatalf("second pass left Err = %v", fs.Err())
	}
}

func TestFileSourceTruncated(t *testing.T) {
	raw, _ := recordedTrace(t, 32)
	for _, cut := range []int{7, 100, len(raw) / 2} {
		fs, err := newFileSource(bytes.NewReader(raw[:len(raw)-cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		drain(fs)
		if !errors.Is(fs.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: Err = %v, want ErrUnexpectedEOF", cut, fs.Err())
		}
	}
}

func TestFileSourceRejectsGarbageHeader(t *testing.T) {
	if _, err := newFileSource(bytes.NewReader([]byte("not a trace file at all"))); err != errBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := newFileSource(bytes.NewReader([]byte("LS"))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestHostileTimeBinRejected is the regression test for the header check
// ReadAll used to skip: "LSTRACE1" followed by a zero (or negative) bin
// was accepted with TimeBin() == 0, and the engine's bins-per-interval
// division then panicked in `lsd -trace FILE`. Every reader — ReadAll,
// newFileSource and so OpenFile and TailFile — goes through readHeader.
func TestHostileTimeBinRejected(t *testing.T) {
	for _, binNs := range []int64{0, -1, -int64(DefaultTimeBin)} {
		raw := binary.LittleEndian.AppendUint64(append([]byte(nil), fileMagic[:]...), uint64(binNs))
		if src, err := ReadAll(bytes.NewReader(raw)); !errors.Is(err, errCorrupt) {
			t.Errorf("ReadAll, bin %d ns: err = %v (source %v), want ErrCorrupt", binNs, err, src)
		}
		if _, err := newFileSource(bytes.NewReader(raw)); !errors.Is(err, errCorrupt) {
			t.Errorf("NewFileSource, bin %d ns: err = %v, want ErrCorrupt", binNs, err)
		}
	}
	// The two readers agree on the other header failures too.
	for _, c := range []struct {
		raw  string
		want error
	}{
		{"", io.ErrUnexpectedEOF},
		{"LSTRACE1\x00\x00", io.ErrUnexpectedEOF},
		{"LSTRACE2\x00\xe1\xf5\x05\x00\x00\x00\x00", errBadMagic},
	} {
		if _, err := ReadAll(bytes.NewReader([]byte(c.raw))); !errors.Is(err, c.want) {
			t.Errorf("ReadAll(%q): err = %v, want %v", c.raw, err, c.want)
		}
		if _, err := newFileSource(bytes.NewReader([]byte(c.raw))); !errors.Is(err, c.want) {
			t.Errorf("NewFileSource(%q): err = %v, want %v", c.raw, err, c.want)
		}
	}
}

// corruptCountFile returns a structurally valid header followed by a
// batch whose packet count claims npkts with no packet data behind it.
func corruptCountFile(npkts uint32) []byte {
	var buf bytes.Buffer
	buf.Write(fileMagic[:])
	binary.Write(&buf, binary.LittleEndian, int64(DefaultTimeBin))
	binary.Write(&buf, binary.LittleEndian, int64(0)) // startNs
	binary.Write(&buf, binary.LittleEndian, npkts)
	return buf.Bytes()
}

// TestReadAllCorruptCount is the regression test for the unvalidated
// allocation: a batch header claiming 2^32-1 packets used to demand a
// ~270 GB allocation before the first read failed. It must now fail
// with a format error (and, below the cap, with ErrUnexpectedEOF after
// only a bounded chunk was allocated).
func TestReadAllCorruptCount(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader(corruptCountFile(0xffffffff))); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// A count under the plausibility cap but past end of file must be a
	// truncation error, reached without allocating count packets.
	if _, err := ReadAll(bytes.NewReader(corruptCountFile(maxBatchPackets))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestFileSourceCorruptCount(t *testing.T) {
	fs, err := newFileSource(bytes.NewReader(corruptCountFile(0xffffffff)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.NextBatch(); ok {
		t.Fatal("corrupt batch delivered")
	}
	if !errors.Is(fs.Err(), errCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", fs.Err())
	}
}

func TestReadAllCorruptPayloadLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(fileMagic[:])
	binary.Write(&buf, binary.LittleEndian, int64(DefaultTimeBin))
	binary.Write(&buf, binary.LittleEndian, int64(0))  // startNs
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // one packet
	buf.Write(make([]byte, 26))                        // zeroed packet header
	binary.Write(&buf, binary.LittleEndian, uint16(pkt.SnapLen+1))
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, errCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadAllTruncatedIsUnexpectedEOF(t *testing.T) {
	raw, _ := recordedTrace(t, 33)
	if _, err := ReadAll(bytes.NewReader(raw[:len(raw)-7])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestGeneratorMaxBins(t *testing.T) {
	cfg := shortCfg(34) // Duration 3 s = 30 bins
	cfg.MaxBins = 7
	if got := len(drain(NewGenerator(cfg))); got != 7 {
		t.Fatalf("MaxBins=7 produced %d batches", got)
	}

	// Unbounded: the generator keeps producing well past the
	// Duration-derived count, and Reset still reproduces the stream.
	cfg.MaxBins = -1
	g := NewGenerator(cfg)
	first := make([]pkt.Batch, 0, 40)
	for i := 0; i < 40; i++ {
		b, ok := g.NextBatch()
		if !ok {
			t.Fatalf("unbounded generator ended at bin %d", i)
		}
		first = append(first, b)
	}
	g.Reset()
	for i := 0; i < 40; i++ {
		b, ok := g.NextBatch()
		if !ok {
			t.Fatalf("reset unbounded generator ended at bin %d", i)
		}
		if b.Start != first[i].Start || len(b.Pkts) != len(first[i].Pkts) {
			t.Fatalf("bin %d not reproduced after Reset", i)
		}
	}
}

// TestMemorySourceAliasesStorage pins the Source ownership contract:
// MemorySource returns its stored slice (replays would otherwise copy
// the whole trace every run), and consumers are bound to read-only use.
func TestMemorySourceAliasesStorage(t *testing.T) {
	batches := []pkt.Batch{{Bin: DefaultTimeBin, Pkts: []pkt.Packet{{SrcIP: 1}, {SrcIP: 2}}}}
	m := NewMemorySource(batches, DefaultTimeBin)
	b, ok := m.NextBatch()
	if !ok {
		t.Fatal("no batch")
	}
	if &b.Pkts[0] != &batches[0].Pkts[0] {
		t.Fatal("MemorySource copied its storage; the contract documents aliasing precisely so it does not have to")
	}
}

func TestFileSourceBatchesAreFresh(t *testing.T) {
	raw, _ := recordedTrace(t, 35)
	fs, err := newFileSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := fs.NextBatch()
	if !ok || len(a.Pkts) == 0 {
		t.Fatal("no first batch")
	}
	save := a.Pkts[0]
	payload := append([]byte(nil), save.Payload...)
	fs.NextBatch() // must not touch the batch already delivered
	got := a.Pkts[0]
	if got.Ts != save.Ts || got.SrcIP != save.SrcIP || got.Size != save.Size ||
		!bytes.Equal(got.Payload, payload) {
		t.Fatal("FileSource mutated a delivered batch")
	}
}
