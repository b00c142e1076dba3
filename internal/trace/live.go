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
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

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

// arenaChunk is the size of one arena chunk: 32 full datagrams, so a
// chunk change is rare against the reads and a bin's slack is bounded
// by one chunk.
const arenaChunk = 32 * maxDatagram

// poolDepth bounds both the free list and the record of lent buffers:
// every bin the out channel can hold, the two the bin pipeline's ring
// holds, the one in its front stage's hands and the one being filled.
const poolDepth = liveBacklog + 4

// minBinPkts is the packet capacity below which a buffer is never
// considered oversized (56 KB of packet headers).
const minBinPkts = 1024

// binBuf is the storage of one bin: its packets and the arena their
// payloads alias. The listener fills it, the consumer reads it, and
// Recycle hands it back; exactly one of them holds it at any time.
type binBuf struct {
	pkts   []pkt.Packet
	chunks [][]byte // arenaChunk bytes each, filled in order
	ci     int      // chunk the next datagram lands in
	off    int      // offset of the next datagram in chunks[ci]
}

// tail returns the maxDatagram bytes the next datagram is read into,
// moving to the next chunk (a new one when the buffer has never been
// this full) once the current one cannot hold a whole datagram.
func (b *binBuf) tail() []byte {
	if arenaChunk-b.off < maxDatagram {
		b.ci++
		b.off = 0
	}
	if b.ci == len(b.chunks) {
		b.chunks = append(b.chunks, make([]byte, arenaChunk))
	}
	return b.chunks[b.ci][b.off : b.off+maxDatagram]
}

// used is the arena's fill in bytes, whole skipped chunk tails included.
func (b *binBuf) used() int { return b.ci*arenaChunk + b.off }

// size is the capacity the buffer pins, in bytes.
func (b *binBuf) size() int {
	return cap(b.pkts)*int(unsafe.Sizeof(pkt.Packet{})) + len(b.chunks)*arenaChunk
}

func (b *binBuf) reset() { b.pkts, b.ci, b.off = b.pkts[:0], 0, 0 }

// holds reports whether pkts is (a prefix of) b's packet slice. Only
// buffers with packets in them are ever lent, so b's is not empty.
func (b *binBuf) holds(pkts []pkt.Packet) bool {
	return cap(pkts) > 0 && &pkts[:1][0] == &b.pkts[0]
}

// bufPool is the listener's bounded stock of bin buffers. lent records
// the buffers behind delivered batches so Recycle can find a batch's
// arena from its packet slice; a consumer that never recycles just
// pushes the oldest entries out, and those buffers become garbage with
// the batches that alias them.
type bufPool struct {
	mu   sync.Mutex
	free []*binBuf
	lent []*binBuf
	// Decaying maxima of what delivered bins used: a fresh buffer is
	// sized from them, and a returning one far above them (it grew for a
	// burst that has passed) is dropped rather than pooled.
	recentPkts, recentBytes int
}

// get returns an empty buffer: the most recently recycled one, or a new
// one with room for a recent bin's packets.
func (p *bufPool) get() *binBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	b := &binBuf{}
	if p.recentPkts > 0 {
		b.pkts = make([]pkt.Packet, 0, p.recentPkts+p.recentPkts/4)
	}
	return b
}

// lend records a filled buffer that is about to be delivered.
func (p *bufPool) lend(b *binBuf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recentPkts = max(len(b.pkts), p.recentPkts-p.recentPkts/16)
	p.recentBytes = max(b.used(), p.recentBytes-p.recentBytes/16)
	if len(p.lent) == poolDepth {
		p.lent = slices.Delete(p.lent, 0, 1)
	}
	p.lent = append(p.lent, b)
}

// recycle takes back the buffer behind pkts, if it is one of ours.
func (p *bufPool) recycle(pkts []pkt.Packet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := slices.IndexFunc(p.lent, func(b *binBuf) bool { return b.holds(pkts) })
	if i < 0 {
		return
	}
	b := p.lent[i]
	p.lent = slices.Delete(p.lent, i, i+1)
	oversized := cap(b.pkts) > 4*max(p.recentPkts, minBinPkts) ||
		len(b.chunks)*arenaChunk > 4*max(p.recentBytes, arenaChunk)
	if oversized || len(p.free) == poolDepth {
		return
	}
	b.reset()
	p.free = append(p.free, b)
}

// LiveConfig parameterizes a live listener.
type LiveConfig struct {
	// Bin is the wall-clock batch duration; DefaultTimeBin if zero.
	Bin time.Duration
}

// LiveSource is a Source fed by a datagram socket. Construct with
// ListenLive; feed with LiveSender (or anything emitting the frame
// format above); stop with Close.
type LiveSource struct {
	conn  net.Conn // a *net.UDPConn or *net.UnixConn, unconnected
	bin   time.Duration
	out   chan pkt.Batch
	wg    sync.WaitGroup
	start time.Time

	unixPath string // non-empty: socket file to unlink on Close
	rcvBuf   int    // granted SO_RCVBUF of a UDP listener, 0 otherwise
	inode    uint64 // socket inode of a UDP listener, 0 when unknown

	closing   atomic.Bool // set before the socket closes; listen reads it
	closeOnce sync.Once
	closeErr  error
	badFrames atomic.Int64
	dropBins  atomic.Int64
	dropPkts  atomic.Int64
	pool      bufPool

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
	pc, err := net.ListenPacket(network, address)
	if err != nil {
		return nil, err
	}
	if cfg.Bin <= 0 {
		cfg.Bin = DefaultTimeBin
	}
	// Both datagram socket types are also net.Conns, and the listener
	// reads through Read: the sender's address is of no use here, and
	// ReadFrom would allocate one per datagram.
	conn := pc.(net.Conn)
	l := &LiveSource{
		conn:  conn,
		bin:   cfg.Bin,
		out:   make(chan pkt.Batch, liveBacklog),
		start: time.Now(),
	}
	if network == "unixgram" {
		l.unixPath = address
	} else {
		l.rcvBuf, l.inode = prepareUDP(conn.(*net.UDPConn))
	}
	l.wg.Add(1)
	go l.listen()
	return l, nil
}

// prepareUDP asks for udpRcvBuf and returns the size the kernel granted
// (0 when it cannot be read back) and the socket's inode, which is how
// KernelDrops finds it in /proc. A refused request is not an error: the
// listener works with whatever buffer it has, and the gauge shows it.
func prepareUDP(c *net.UDPConn) (granted int, inode uint64) {
	_ = c.SetReadBuffer(udpRcvBuf)
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, 0
	}
	_ = rc.Control(func(fd uintptr) {
		granted, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		var st syscall.Stat_t
		if syscall.Fstat(int(fd), &st) == nil {
			inode = st.Ino
		}
	})
	return granted, inode
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
	binIdx := 0
	binEnd := l.start.Add(l.bin)
	cur := l.pool.get()
	l.conn.SetReadDeadline(binEnd)
	for {
		dg := cur.tail()
		n, err := l.conn.Read(dg)
		if n > 0 {
			cur.off += n
			cur.pkts = l.decodeFrames(dg[:n], cur.pkts)
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
			l.conn.SetReadDeadline(binEnd)
			continue
		}
		// Closed (Close set the flag first) or a genuine socket error:
		// flush the partial bin and end the stream.
		if len(cur.pkts) > 0 {
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
// buffer for the next bin: another one after a hand-off, the same one
// emptied when there was nothing to hand off — the bin was empty (a
// silent link costs no storage), or it was dropped because the consumer
// is too far behind. Once the batch is on the channel the consumer may
// recycle it at any moment, so everything emit wants from cur is read
// before the send and nothing after it.
func (l *LiveSource) emit(cur *binBuf, binIdx int) *binBuf {
	b := pkt.Batch{Start: time.Duration(binIdx) * l.bin, Bin: l.bin, Pkts: cur.pkts}
	sortBatch(&b)
	switch {
	case len(l.out) == cap(l.out):
		// This goroutine is the channel's only sender, so a full channel
		// here is a full channel at the send, and room is room.
		l.dropBins.Add(1)
		l.dropPkts.Add(int64(len(cur.pkts)))
	case len(cur.pkts) == 0:
		b.Pkts = nil
		l.out <- b
	default:
		l.pool.lend(cur)
		l.out <- b
		return l.pool.get()
	}
	cur.reset()
	return cur
}

// decodeFrames appends every well-formed frame in one datagram to dst.
// Payloads are not copied: each aliases data, with its capacity cut to
// its length so an append cannot reach the neighbouring frame.
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
			p.Payload = rec[recordHdrLen:flen:flen]
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

// Recycle implements Recycler: the storage behind a batch NextBatch
// delivered goes back to the listener, which will overwrite it. A batch
// that is not (or no longer) one of this source's is ignored. Safe to
// call concurrently with NextBatch.
func (l *LiveSource) Recycle(b pkt.Batch) { l.pool.recycle(b.Pkts) }

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

// KernelDrops reports how many datagrams the kernel discarded because a
// UDP listener's receive buffer was full — loss that happens before the
// listener sees anything, so no counter of its own can show it. It reads
// the socket's row of /proc/net/udp{,6}, so it belongs on a scrape, never
// on the packet path; ok is false for unixgram and wherever the row
// cannot be read.
func (l *LiveSource) KernelDrops() (drops int64, ok bool) {
	if l.inode == 0 {
		return 0, false
	}
	for _, path := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		drops, ok = udpDrops(f, l.inode)
		f.Close()
		if ok {
			return drops, true
		}
	}
	return 0, false
}

// udpDrops finds the socket with the given inode in a /proc/net/udp
// table and returns its drops column (the last; inode is the tenth).
func udpDrops(table io.Reader, inode uint64) (drops int64, ok bool) {
	want := strconv.FormatUint(inode, 10)
	sc := bufio.NewScanner(table)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 13 || f[9] != want {
			continue
		}
		drops, err := strconv.ParseInt(f[12], 10, 64)
		return drops, err == nil
	}
	return 0, false
}

// DroppedPackets counts the packets those dropped bins held.
func (l *LiveSource) DroppedPackets() int64 { return l.dropPkts.Load() }

// PoolStats reports the recycled buffers waiting for reuse and the
// bytes of capacity they pin.
func (l *LiveSource) PoolStats() (buffers int, bytes int64) {
	l.pool.mu.Lock()
	defer l.pool.mu.Unlock()
	for _, b := range l.pool.free {
		bytes += int64(b.size())
	}
	return len(l.pool.free), bytes
}

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
