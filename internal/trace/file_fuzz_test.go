package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/pkt"
)

// FuzzReadTraceFile feeds arbitrary bytes to both trace file readers —
// the header check and readBatch behind ReadAll and FileSource. A trace
// file is operator-supplied input (`lsd -trace`, `tracegen -info`), so
// whatever the bytes: no panic; the only failures are the documented
// ones (errBadMagic from the header, errCorrupt, io.ErrUnexpectedEOF);
// the two readers agree; a batch holds no more packets than the bytes
// behind it can encode; and memory allocated stays within the up-front
// chunk cap plus a multiple of the input, however large a count the
// bytes claim. The seed corpus runs in plain `go test`.
func FuzzReadTraceFile(f *testing.F) {
	header := binary.LittleEndian.AppendUint64(append([]byte(nil), fileMagic[:]...), uint64(DefaultTimeBin))
	var valid bytes.Buffer
	two := NewMemorySource([]pkt.Batch{
		{Start: 0, Pkts: []pkt.Packet{{Ts: 1, SrcIP: 1, Size: 60}, {Ts: 2, DstPort: 80, Size: 1500, Payload: []byte("GET /")}}},
		{Start: DefaultTimeBin}, // a silent bin
	}, DefaultTimeBin)
	if err := WriteAll(&valid, two); err != nil {
		f.Fatal(err)
	}
	oversizedPayload := append(append([]byte(nil), corruptCountFile(1)...), make([]byte, recordHdrLen)...)
	binary.LittleEndian.PutUint16(oversizedPayload[len(oversizedPayload)-2:], pkt.SnapLen+1)

	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])                                         // truncated mid-record
	f.Add(header[:11])                                                           // truncated header
	f.Add(append(fileMagic[:len(fileMagic):len(fileMagic)], make([]byte, 8)...)) // zero time bin
	f.Add(corruptCountFile(maxBatchPackets))                                     // count far past end of file
	f.Add(corruptCountFile(0xffffffff))                                          // count past the plausibility cap
	f.Add(oversizedPayload)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, errAll := ReadAll(bytes.NewReader(data))
		runtime.ReadMemStats(&after)

		// Two 1 MiB bufio readers' worth of slack, the chunk an
		// unvalidated count may reserve, and the decoded packets
		// themselves (append doubling included).
		budget := uint64(2<<20 + allocChunkPackets*int(unsafe.Sizeof(pkt.Packet{})) + 64*len(data))
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("ReadAll allocated %d bytes for a %d-byte input (budget %d)", got, len(data), budget)
		}
		if !documented(errAll) {
			t.Fatalf("ReadAll: undocumented error %v", errAll)
		}

		fs, errFile := newFileSource(bytes.NewReader(data))
		var streamed []pkt.Batch
		if errFile == nil {
			streamed = drain(fs)
			errFile = fs.Err()
		}
		if !documented(errFile) {
			t.Fatalf("FileSource: undocumented error %v", errFile)
		}
		if (errAll == nil) != (errFile == nil) {
			t.Fatalf("readers disagree: ReadAll %v, FileSource %v", errAll, errFile)
		}
		if errAll != nil {
			return
		}
		if src.TimeBin() <= 0 {
			t.Fatalf("accepted time bin %v", src.TimeBin())
		}
		all := drain(src)
		sameBatches(t, streamed, all)
		npkts := 0
		for _, b := range all {
			npkts += len(b.Pkts)
			for i := range b.Pkts {
				if len(b.Pkts[i].Payload) > pkt.SnapLen {
					t.Fatalf("accepted a %d-byte payload", len(b.Pkts[i].Payload))
				}
			}
		}
		if max := (len(data) - headerSize) / recordHdrLen; npkts > max {
			t.Fatalf("%d packets decoded from %d bytes (at most %d fit)", npkts, len(data), max)
		}
	})
}

// documented reports whether err is one a trace file reader may return.
func documented(err error) bool {
	return err == nil || errors.Is(err, errBadMagic) || errors.Is(err, errCorrupt) || errors.Is(err, io.ErrUnexpectedEOF)
}
