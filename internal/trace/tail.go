package trace

// tail.go — tail-follow replay of a growing trace file: a Source that
// delivers batches as a writer appends them, for feeding a live monitor
// from a capture process that spools to disk. It reuses the trace file
// format and readBatch verbatim; the only new mechanics are remembering
// the offset of the last complete batch and rewinding to it when a read
// runs into the file's current end (a clean EOF at a batch boundary or
// a torn, partially-written record — both mean "wait and retry", not
// "stream over").

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/pkt"
)

// defaultTailPoll is how often a TailSource re-checks a file that had
// no complete batch ready.
const defaultTailPoll = 50 * time.Millisecond

// TailSource follows a growing trace file. Construct with TailFile;
// stop with Close, which unblocks a NextBatch waiting for more data.
// Like every file source it is single-consumer.
type TailSource struct {
	f    *os.File
	br   *bufio.Reader
	bin  time.Duration
	off  int64 // offset of the first unconsumed batch
	poll time.Duration

	quit      chan struct{}
	closeOnce sync.Once

	err error
}

// TailFile opens path for tail-follow replay. The file's 16-byte header
// must already be written (a spooling capture writes it first); poll <= 0
// selects defaultTailPoll.
func TailFile(path string, poll time.Duration) (*TailSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fs, err := newFileSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if poll <= 0 {
		poll = defaultTailPoll
	}
	return &TailSource{
		f:    f,
		br:   bufio.NewReaderSize(f, 1<<20),
		bin:  fs.TimeBin(),
		off:  headerSize,
		poll: poll,
		quit: make(chan struct{}),
	}, nil
}

// NextBatch implements Source: it returns the next complete batch,
// blocking (in poll-sized naps) while the writer is still appending it.
// ok=false means Close was called or the file is corrupt — Err
// distinguishes the two.
func (t *TailSource) NextBatch() (pkt.Batch, bool) {
	if t.err != nil {
		return pkt.Batch{}, false
	}
	for {
		if _, err := t.f.Seek(t.off, io.SeekStart); err != nil {
			return t.fail(err)
		}
		t.br.Reset(t.f)
		b, err := readBatch(t.br, t.bin)
		switch {
		case err == nil:
			t.off += encodedBatchSize(&b)
			return b, true
		case err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF):
			// At (or past) the file's current end: the writer has not
			// finished this batch. Wait and re-read from the same offset.
			select {
			case <-t.quit:
				return pkt.Batch{}, false
			case <-time.After(t.poll):
			}
		default:
			return t.fail(err)
		}
	}
}

func (t *TailSource) fail(err error) (pkt.Batch, bool) {
	select {
	case <-t.quit:
		// A concurrent Close raced the read; a closed-file error is the
		// expected way out, not a stream failure.
		return pkt.Batch{}, false
	default:
	}
	t.err = err
	return pkt.Batch{}, false
}

// Reset implements Source: it rewinds to the first batch, replaying
// everything written so far before following new appends again.
func (t *TailSource) Reset() {
	t.off = headerSize
	t.err = nil
}

// TimeBin implements Source.
func (t *TailSource) TimeBin() time.Duration { return t.bin }

// Err returns the read or format error that ended the stream, nil
// after a clean Close.
func (t *TailSource) Err() error { return t.err }

// Close stops the tail: a NextBatch sleeping for more data wakes and
// reports ok=false, and the file handle is released.
func (t *TailSource) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.quit)
		err = t.f.Close()
	})
	return err
}

// encodedBatchSize is the exact on-disk size of a batch: the 12-byte
// batch header plus every packet's record.
func encodedBatchSize(b *pkt.Batch) int64 {
	n := int64(12)
	for i := range b.Pkts {
		n += int64(recordSize(&b.Pkts[i]))
	}
	return n
}
