package trace

// live.go — live packet ingest: a Source backed by a datagram socket
// (UDP or unixgram) instead of a file or generator, for the serving
// deployment of cmd/lsd. Probes forward captured packets as
// length-prefixed frames; the listener accumulates them into wall-clock
// time bins and delivers one batch per bin, silent bins included, so
// the engine's bin cadence tracks real time the way a CoMo capture
// process's does.
//
// Wire framing (little endian):
//
//	frame:  frameLen uint16   // length of the record that follows
//	record: the trace file's packet record (record.go)
//
// A datagram carries any number of back-to-back frames. Frames are
// validated individually: a frame whose length or payload bound is
// implausible ends decoding of that datagram (datagram boundaries make
// resynchronization automatic) and increments BadFrames; well-formed
// neighbours in earlier frames are kept. Lost datagrams are simply
// absent — UDP loss shows up as missing packets, the same way a
// saturated capture card drops on the wire.
//
// A LiveSource intentionally breaks the Source determinism contract
// (live traffic cannot be replayed): Reset is a no-op and NextBatch
// blocks until the next wall-clock bin closes. Close unblocks a pending
// NextBatch, which is how a serving process cancels a stream that is
// waiting on a silent link.

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pkt"
)

// maxDatagram bounds the datagrams LiveSender packs; 8 KB stays under
// the default unixgram SO_SNDBUF and fragments at most a handful of
// ways on loopback UDP.
const maxDatagram = 8192

// udpRcvBuf is the socket receive buffer a UDP listener asks for. A
// probe forwards a whole bin as one burst of 8 KB datagrams; the
// default (≈ 208 KB on Linux) holds a few dozen of them and the kernel
// silently drops the rest before the listener is scheduled. 4 MiB holds
// two full bins of the evaluation traces; the kernel clamps the request
// to net.core.rmem_max, so RcvBuf reports what was actually granted.
const udpRcvBuf = 4 << 20

// liveBacklog is the depth, in bins, of the delivered-batch channel
// between the listener goroutine and NextBatch. When the consumer falls
// further behind, whole bins are dropped and counted in DroppedBins —
// the ingest analogue of a capture-buffer overflow.
const liveBacklog = 16

// LiveConfig parameterizes a live listener.
type LiveConfig struct {
	// Bin is the wall-clock batch duration; DefaultTimeBin if zero.
	Bin time.Duration
}

// LiveSource is a Source fed by a datagram socket. Construct with
// ListenLive; feed with LiveSender (or anything emitting the frame
// format above); stop with Close.
type LiveSource struct {
	conn  net.PacketConn
	bin   time.Duration
	out   chan pkt.Batch
	quit  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	unixPath string // non-empty: socket file to unlink on Close
	rcvBuf   int    // granted SO_RCVBUF of a UDP listener, 0 otherwise

	closing   atomic.Bool // set before the socket closes; listen reads it
	closeOnce sync.Once
	closeErr  error
	badFrames atomic.Int64
	dropBins  atomic.Int64

	mu  sync.Mutex
	err error
}

// ListenLive opens a datagram listener on network ("udp", "udp4",
// "udp6" or "unixgram") and address, and starts binning received
// packets immediately.
func ListenLive(network, address string, cfg LiveConfig) (*LiveSource, error) {
	switch network {
	case "udp", "udp4", "udp6", "unixgram":
	default:
		return nil, fmt.Errorf("trace: live ingest supports udp/unixgram, not %q", network)
	}
	conn, err := net.ListenPacket(network, address)
	if err != nil {
		return nil, err
	}
	if cfg.Bin <= 0 {
		cfg.Bin = DefaultTimeBin
	}
	l := &LiveSource{
		conn:  conn,
		bin:   cfg.Bin,
		out:   make(chan pkt.Batch, liveBacklog),
		quit:  make(chan struct{}),
		start: time.Now(),
	}
	if network == "unixgram" {
		l.unixPath = address
	} else {
		l.rcvBuf = growRcvBuf(conn.(*net.UDPConn))
	}
	l.wg.Add(1)
	go l.listen()
	return l, nil
}

// growRcvBuf asks for udpRcvBuf and returns the size the kernel granted
// (0 when it cannot be read back). A refused request is not an error:
// the listener works with whatever buffer it has, and the gauge shows it.
func growRcvBuf(c *net.UDPConn) (granted int) {
	_ = c.SetReadBuffer(udpRcvBuf)
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	_ = rc.Control(func(fd uintptr) {
		granted, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return granted
}

// RcvBuf reports the socket receive buffer, in bytes, the kernel granted
// a UDP listener (Linux reports twice the usable size, counting its own
// bookkeeping); 0 for unixgram, whose sender blocks instead of dropping.
func (l *LiveSource) RcvBuf() int { return l.rcvBuf }

// Addr returns the bound address (useful with ":0" UDP listeners).
func (l *LiveSource) Addr() net.Addr { return l.conn.LocalAddr() }

// listen is the ingest goroutine: it reads datagrams until the bin's
// wall-clock deadline, emits the accumulated batch, and repeats. It
// owns the out channel and closes it on exit.
func (l *LiveSource) listen() {
	defer l.wg.Done()
	defer close(l.out)
	buf := make([]byte, maxDatagram)
	binIdx := 0
	binEnd := l.start.Add(l.bin)
	var cur []pkt.Packet
	for {
		l.conn.SetReadDeadline(binEnd)
		n, _, err := l.conn.ReadFrom(buf)
		if n > 0 {
			cur = l.decodeFrames(buf[:n], cur)
		}
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			// Bin boundary. Emit the bin (empty ones included — a silent
			// link still advances wall-clock time), then catch up if the
			// process stalled across several bins.
			cur = l.emit(cur, binIdx)
			binIdx++
			binEnd = binEnd.Add(l.bin)
			for !time.Now().Before(binEnd) {
				cur = l.emit(cur, binIdx)
				binIdx++
				binEnd = binEnd.Add(l.bin)
			}
			continue
		}
		// Closed (Close set the flag first) or a genuine socket error:
		// flush the partial bin and end the stream.
		if len(cur) > 0 {
			l.emit(cur, binIdx)
		}
		if !l.closing.Load() {
			l.mu.Lock()
			l.err = err
			l.mu.Unlock()
		}
		return
	}
}

// emit finalizes one bin and hands it to the consumer. It returns the
// packet scratch for the next bin: nil after a successful hand-off (the
// consumer owns the slice now), the same storage recycled when the bin
// was dropped because the consumer is too far behind.
func (l *LiveSource) emit(cur []pkt.Packet, binIdx int) []pkt.Packet {
	b := pkt.Batch{Start: time.Duration(binIdx) * l.bin, Bin: l.bin, Pkts: cur}
	sortBatch(&b)
	select {
	case l.out <- b:
		return nil
	default:
		l.dropBins.Add(1)
		return cur[:0]
	}
}

// decodeFrames appends every well-formed frame in one datagram to dst.
func (l *LiveSource) decodeFrames(data []byte, dst []pkt.Packet) []pkt.Packet {
	for len(data) >= 2 {
		flen := int(binary.LittleEndian.Uint16(data[0:2]))
		data = data[2:]
		if flen < recordHdrLen || flen > len(data) {
			l.badFrames.Add(1)
			return dst
		}
		rec := data[:flen]
		data = data[flen:]
		var p pkt.Packet
		plen := decodeRecordHdr(&p, rec)
		if plen > pkt.SnapLen || recordHdrLen+plen != flen {
			l.badFrames.Add(1)
			return dst
		}
		if plen > 0 {
			p.Payload = append([]byte(nil), rec[recordHdrLen:]...)
		}
		dst = append(dst, p)
	}
	if len(data) != 0 {
		l.badFrames.Add(1)
	}
	return dst
}

// NextBatch implements Source: it blocks until the next wall-clock bin
// closes (or drains a buffered one) and reports ok=false once Close has
// ended the stream and every buffered bin is consumed.
func (l *LiveSource) NextBatch() (pkt.Batch, bool) {
	b, ok := <-l.out
	return b, ok
}

// Reset implements Source. Live traffic cannot rewind; Reset is a
// no-op so the engine's run setup works unchanged.
func (l *LiveSource) Reset() {}

// TimeBin implements Source.
func (l *LiveSource) TimeBin() time.Duration { return l.bin }

// Err returns the socket error that ended the stream, nil after a
// clean Close.
func (l *LiveSource) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// BadFrames counts frames rejected by validation since start.
func (l *LiveSource) BadFrames() int64 { return l.badFrames.Load() }

// DroppedBins counts whole bins discarded because the consumer lagged
// more than the backlog.
func (l *LiveSource) DroppedBins() int64 { return l.dropBins.Load() }

// Close stops the listener: the socket closes (unblocking a pending
// read), the ingest goroutine flushes its partial bin and exits, and
// NextBatch drains whatever was buffered before reporting ok=false.
// A unixgram socket file is removed. Close may be called more than once
// and concurrently (a signal callback racing the main goroutine): every
// call returns only after the goroutine has exited and the file is gone.
func (l *LiveSource) Close() error {
	l.closeOnce.Do(func() {
		l.closing.Store(true)
		l.closeErr = l.conn.Close()
		l.wg.Wait()
		if l.unixPath != "" {
			os.Remove(l.unixPath)
		}
	})
	return l.closeErr
}

// LiveSender forwards batches to a live listener, packing frames
// back-to-back into datagrams. It is the probe half of the ingest pair:
// cmd/lsd -feed uses it to replay a generator or trace file into a
// serving monitor, and tests use it as the reference encoder.
type LiveSender struct {
	conn net.Conn
	buf  []byte
}

// DialLive connects a sender to a live listener's network and address.
func DialLive(network, address string) (*LiveSender, error) {
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return &LiveSender{conn: conn, buf: make([]byte, 0, maxDatagram)}, nil
}

// SendBatch transmits every packet of b, flushing a datagram whenever
// the next frame would overflow it.
func (s *LiveSender) SendBatch(b *pkt.Batch) error {
	for i := range b.Pkts {
		p := &b.Pkts[i]
		need := 2 + recordSize(p)
		if len(s.buf)+need > maxDatagram {
			if err := s.flush(); err != nil {
				return err
			}
		}
		s.buf = appendFrame(s.buf, p)
	}
	return s.flush()
}

func (s *LiveSender) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.conn.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Close flushes and closes the sender's socket.
func (s *LiveSender) Close() error {
	ferr := s.flush()
	cerr := s.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// appendFrame encodes one packet as a length-prefixed frame.
func appendFrame(dst []byte, p *pkt.Packet) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(recordSize(p)))
	return appendRecord(dst, p)
}
