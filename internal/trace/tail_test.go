package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pkt"
)

// writeTraceHeader starts a trace file the way a spooling capture does:
// header first, batches appended as they complete.
func writeTraceHeader(t *testing.T, f *os.File, bin time.Duration) {
	t.Helper()
	if _, err := f.Write(fileMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, int64(bin)); err != nil {
		t.Fatal(err)
	}
}

// TestTailFollowsGrowingFile appends batches — one of them in two torn
// halves — while a TailSource reads, and requires every batch to arrive
// complete and byte-identical.
func TestTailFollowsGrowingFile(t *testing.T) {
	cfg := shortCfg(5)
	cfg.Payload = true
	want := Record(NewGenerator(cfg))
	path := filepath.Join(t.TempDir(), "grow.lstrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeTraceHeader(t, f, DefaultTimeBin)
	if err := writeBatch(f, &want[0]); err != nil {
		t.Fatal(err)
	}

	ts, err := TailFile(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	got0, ok := ts.NextBatch()
	if !ok {
		t.Fatalf("first batch not delivered: %v", ts.Err())
	}

	// Torn write: half of batch 1 now, the rest (plus batch 2) shortly.
	var enc bytes.Buffer
	if err := writeBatch(&enc, &want[1]); err != nil {
		t.Fatal(err)
	}
	half := enc.Len() / 2
	if _, err := f.Write(enc.Bytes()[:half]); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		f.Write(enc.Bytes()[half:])
		writeBatch(f, &want[2])
	}()

	got1, ok := ts.NextBatch()
	if !ok {
		t.Fatalf("torn batch not delivered after completion: %v", ts.Err())
	}
	got2, ok := ts.NextBatch()
	if !ok {
		t.Fatalf("appended batch not delivered: %v", ts.Err())
	}
	sameBatches(t, []pkt.Batch{got0, got1, got2}, want[:3])
	if ts.Err() != nil {
		t.Fatalf("unexpected error: %v", ts.Err())
	}
}

// TestTailCorruptFails pins the error split: a structurally implausible
// record ends the stream with errCorrupt instead of polling forever.
func TestTailCorruptFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.lstrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeTraceHeader(t, f, DefaultTimeBin)
	// A batch header claiming an absurd packet count.
	if err := binary.Write(f, binary.LittleEndian, int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(f, binary.LittleEndian, uint32(maxBatchPackets+1)); err != nil {
		t.Fatal(err)
	}

	ts, err := TailFile(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, ok := ts.NextBatch(); ok {
		t.Fatal("corrupt batch delivered")
	}
	if !errors.Is(ts.Err(), errCorrupt) {
		t.Fatalf("want errCorrupt, got %v", ts.Err())
	}
}

// TestTailCloseUnblocks pins the shutdown contract: Close wakes a
// NextBatch waiting for the writer, with no error recorded.
func TestTailCloseUnblocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.lstrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeTraceHeader(t, f, DefaultTimeBin)

	ts, err := TailFile(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := ts.NextBatch()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("NextBatch returned a batch from an empty closed tail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextBatch still blocked after Close")
	}
	if ts.Err() != nil {
		t.Fatalf("clean Close left error: %v", ts.Err())
	}
}

// TestTailReset replays from the start: everything written so far reads
// back identically after a Reset.
func TestTailReset(t *testing.T) {
	want := Record(NewGenerator(shortCfg(6)))
	path := filepath.Join(t.TempDir(), "reset.lstrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	writeTraceHeader(t, f, DefaultTimeBin)
	for i := range want[:2] {
		if err := writeBatch(f, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	ts, err := TailFile(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	a0, _ := ts.NextBatch()
	a1, _ := ts.NextBatch()
	ts.Reset()
	b0, _ := ts.NextBatch()
	b1, _ := ts.NextBatch()
	sameBatches(t, []pkt.Batch{a0, a1}, want[:2])
	sameBatches(t, []pkt.Batch{b0, b1}, want[:2])
}
