package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/pkt"
)

// Binary trace file format (little endian):
//
//	magic   [8]byte  "LSTRACE1"
//	binNs   int64    batch duration in nanoseconds
//	batches:
//	  startNs int64
//	  npkts   uint32
//	  packets: npkts records (record.go)
//
// payloadLen never exceeds pkt.SnapLen: captures are snaplen-limited,
// and both writer and readers enforce the bound.
//
// The format exists so generated workloads can be stored once and
// replayed byte-identically across schemes and machines, mirroring the
// thesis' use of packet traces "for the sake of reproducibility" (§2.3.2).

var fileMagic = [8]byte{'L', 'S', 'T', 'R', 'A', 'C', 'E', '1'}

// errBadMagic is returned when reading a file that is not a trace file.
var errBadMagic = errors.New("trace: bad magic (not a trace file)")

// errCorrupt is returned (wrapped, with detail) when a trace file's
// structure is implausible — e.g. a batch header claiming more packets
// than any real capture holds. Distinguishing it from ErrUnexpectedEOF
// matters operationally: a truncated file can be re-transferred, a
// corrupt one must be regenerated.
var errCorrupt = errors.New("trace: corrupt trace file")

// maxBatchPackets bounds the per-batch packet count a reader accepts.
// A batch is one 100 ms bin; 2^26 packets is ~670 Mpps sustained, far
// beyond any link this system models. The bound exists so a corrupt or
// malicious count field cannot demand a multi-GB allocation before the
// first packet read fails.
const maxBatchPackets = 1 << 26

// allocChunkPackets caps the packet-slice capacity allocated up front
// from an unvalidated count: the reader allocates at most this many
// packets before bytes proving the batch exists have been consumed, so
// a truncated file fails with a small allocation, not count×40 bytes.
const allocChunkPackets = 1 << 16

// WriteAll drains src and writes every batch to w, then resets src.
func WriteAll(w io.Writer, src Source) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(src.TimeBin())); err != nil {
		return err
	}
	src.Reset()
	defer src.Reset()
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		if err := writeBatch(bw, &b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeBatch(w io.Writer, b *pkt.Batch) error {
	if err := binary.Write(w, binary.LittleEndian, int64(b.Start)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(b.Pkts))); err != nil {
		return err
	}
	var rec []byte
	for i := range b.Pkts {
		p := &b.Pkts[i]
		if len(p.Payload) > pkt.SnapLen {
			return fmt.Errorf("trace: payload exceeds snaplen (%d > %d bytes)", len(p.Payload), pkt.SnapLen)
		}
		rec = appendRecord(rec[:0], p)
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// readHeader consumes the file header and returns the time bin: bad
// magic is errBadMagic, a short header io.ErrUnexpectedEOF, and a
// non-positive bin errCorrupt — every consumer divides by it.
func readHeader(r io.Reader) (time.Duration, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, unexpected(err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return 0, errBadMagic
	}
	binNs := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if binNs <= 0 {
		return 0, fmt.Errorf("%w: non-positive time bin %d ns", errCorrupt, binNs)
	}
	return time.Duration(binNs), nil
}

// ReadAll parses a trace file into a replayable MemorySource.
func ReadAll(r io.Reader) (*MemorySource, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	bin, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	var batches []pkt.Batch
	for {
		b, err := readBatch(br, bin)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	return NewMemorySource(batches, bin), nil
}

func readBatch(r io.Reader, bin time.Duration) (pkt.Batch, error) {
	var startNs int64
	if err := binary.Read(r, binary.LittleEndian, &startNs); err != nil {
		return pkt.Batch{}, err // io.EOF here is the clean end of trace
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return pkt.Batch{}, unexpected(err)
	}
	if n > maxBatchPackets {
		return pkt.Batch{}, fmt.Errorf("%w: batch claims %d packets (max %d)", errCorrupt, n, maxBatchPackets)
	}
	b := pkt.Batch{Start: time.Duration(startNs), Bin: bin}
	b.Pkts = make([]pkt.Packet, 0, min(int(n), allocChunkPackets))
	var hdr [recordHdrLen]byte
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return pkt.Batch{}, unexpected(err)
		}
		var p pkt.Packet
		if l := decodeRecordHdr(&p, hdr[:]); l > 0 {
			if l > pkt.SnapLen {
				return pkt.Batch{}, fmt.Errorf("%w: payload length %d exceeds snaplen %d", errCorrupt, l, pkt.SnapLen)
			}
			p.Payload = make([]byte, l)
			if _, err := io.ReadFull(r, p.Payload); err != nil {
				return pkt.Batch{}, unexpected(err)
			}
		}
		b.Pkts = append(b.Pkts, p)
	}
	return b, nil
}

// unexpected upgrades a mid-record EOF to ErrUnexpectedEOF so truncated
// files are distinguishable from clean ends.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FileSource streams a trace file one batch at a time: only the batch
// being delivered is resident, so a file of any size replays in memory
// bounded by its largest batch — the on-disk counterpart of an online
// capture. ReadAll remains the right choice for small traces that are
// replayed many times (references, experiments); FileSource is the
// right choice for long-running Stream deployments.
//
// A FileSource is deterministic like every Source: Reset seeks back to
// the first batch, so repeated replays deliver identical packets.
// It is not safe for concurrent use; cluster shards must each open
// their own.
type FileSource struct {
	r       io.ReadSeeker
	br      *bufio.Reader
	bin     time.Duration
	dataOff int64
	err     error
	closer  io.Closer
}

// headerSize is the byte offset of the first batch: magic + binNs.
const headerSize = 8 + 8

// newFileSource validates the header of r and returns a streaming
// source positioned at the first batch.
func newFileSource(r io.ReadSeeker) (*FileSource, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	bin, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &FileSource{r: r, br: br, bin: bin, dataOff: headerSize}, nil
}

// OpenFile opens path as a streaming trace source; Close releases the
// file handle.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fs, err := newFileSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.closer = f
	return fs, nil
}

// NextBatch implements Source. At end of file it reports ok=false; a
// read or format error also ends the stream and is retained for Err.
// The returned batch is freshly allocated and owned by the caller.
func (f *FileSource) NextBatch() (pkt.Batch, bool) {
	if f.err != nil {
		return pkt.Batch{}, false
	}
	b, err := readBatch(f.br, f.bin)
	if err == io.EOF {
		return pkt.Batch{}, false
	}
	if err != nil {
		f.err = err
		return pkt.Batch{}, false
	}
	return b, true
}

// Reset implements Source: it seeks back to the first batch. A sticky
// read error is cleared (the stream is restarted from scratch); a seek
// failure is retained and leaves the source ended.
func (f *FileSource) Reset() {
	if _, err := f.r.Seek(f.dataOff, io.SeekStart); err != nil {
		f.err = err
		return
	}
	f.br.Reset(f.r)
	f.err = nil
}

// TimeBin implements Source.
func (f *FileSource) TimeBin() time.Duration { return f.bin }

// Err returns the first read, format or seek error that ended the
// stream, or nil after a clean end of file. Because the Source
// interface's NextBatch cannot report errors, callers that accept
// untrusted files should check Err when the stream ends.
func (f *FileSource) Err() error { return f.err }

// Close releases the underlying file when the source was opened with
// OpenFile; otherwise it is a no-op.
func (f *FileSource) Close() error {
	if f.closer == nil {
		return nil
	}
	return f.closer.Close()
}
