package control

// transport.go — how a Node talks to the Coordinator. Two message
// types cross the boundary in either deployment:
//
//	DemandReport  node → coordinator, once per bin
//	BudgetGrant   coordinator → node, once per allocation round
//
// The loopback transport hands both to a Coordinator in the same
// process, synchronously — this is what the engine's Cluster wires up,
// and it makes the split observationally invisible (bit-identical
// results, no goroutines, no copies beyond the small report struct).
//
// The TCP transport runs the same protocol over length-prefixed binary
// frames (the framing idiom of internal/trace/live.go: little-endian
// uint16 payload length, then the payload); server and client hold a
// connection as the same link type below. A connection starts with a
// hello frame naming the worker; the worker then streams report frames
// and the coordinator pushes grant frames on its heartbeat. Workers
// reconnect with backoff after any failure, re-helloing on each attempt
// — which is exactly the rejoin path, since Coordinator.join clears the
// partitioned flag.
//
// Wire format (all integers little-endian, floats IEEE-754 bits):
//
//	frame      := u16 payloadLen | payload
//	hello      := u8 0x01 | u8 nameLen | name | f64 minShare
//	report     := u8 0x02 | i64 bin | f64 demand | f64 minShare | u8 flags   (flags bit0 = done)
//	grant      := u8 0x03 | u64 round | f64 capacity
//	checkpoint := u8 0x04 | i64 bin | u8 flags | u32 blobLen                 (flags bit0 = final)
//	adopt      := u8 0x05 | u8 nameLen | name | i64 bin | u32 blobLen
//	helloAuth  := u8 0x06 | u8 nameLen | name | f64 minShare | mac[32]
//	drain      := u8 0x07
//	challenge  := u8 0x08 | nonce[16]
//	spill      := u8 0x09 | u8 nameLen | name | i64 bin | u8 flags | u32 blobLen  (flags bit0 = final)
//
// Reports and grants never carry the node name: the hello binds the
// connection to a name and everything after inherits it. Checkpoint and
// adopt frames are headers only — the checkpoint blob follows raw on
// the stream, blobLen bytes, because a snapshot does not fit the u16
// frame cap. The blob is the engine's encoding (pkg/loadshed's
// ShardCheckpoint), which nothing here decodes. A spill frame never
// crosses the wire: it heads each checkpoint file in a state directory
// (failover.go), naming the shard the blob behind it belongs to.
//
// Authentication is a pre-shared-key challenge: a keyed coordinator
// sends a challenge frame on accept and requires the hello in helloAuth
// form, mac = HMAC-SHA256(key, nonce || helloPayload[:len-32]). Keyless
// deployments keep the original byte stream exactly (plain hello, no
// challenge). A mismatch on either side rejects the connection and
// bumps the server's auth-failure counter.

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	ihash "repro/internal/hash"
)

// DemandReport is a node's per-bin message to the coordinator: the
// EWMA-smoothed full-rate demand it would consume without shedding,
// plus the minimum share it negotiated. Done marks the node's final
// report, after its trace ended.
type DemandReport struct {
	Node     string
	Bin      int64
	Demand   float64 // cycles per bin at full rate
	MinShare float64
	Done     bool
}

// BudgetGrant is the coordinator's capacity decision for one node:
// the cycle budget it may burn per bin until the next round.
type BudgetGrant struct {
	Node     string
	Round    uint64
	Capacity float64
}

// NodeTransport is a node's link to the budget coordinator. Everything
// on it is advisory, never load-bearing for the node's own run:
// implementations must tolerate Report and Checkpoint errors being
// counted and otherwise ignored.
type NodeTransport interface {
	// Report sends the node's per-bin demand.
	Report(r DemandReport) error
	// Grant returns the most recent capacity decision, with ok=false
	// when no sufficiently fresh grant exists (coordinator unreachable,
	// no allocation round yet) — the node then keeps shedding on its
	// current local capacity.
	Grant() (BudgetGrant, bool)
	// Checkpoint ships an encoded shard checkpoint to the coordinator:
	// the blob, the bin it resumes at, and whether it ends a drain. The
	// blob is opaque here; the caller must not modify it afterwards.
	Checkpoint(blob []byte, bin int64, final bool) error
	// DrainRequested relays the coordinator's drain request (planned
	// migration): when it reports true, the Node checkpoints with Final
	// set at its next interval boundary and stops.
	DrainRequested() bool
}

// loopbackTransport binds a node to an in-process Coordinator under its
// name, so delivery is a method call.
type loopbackTransport struct {
	coord *Coordinator
	name  string
}

// NewLoopback joins a node named name to coord and returns its
// synchronous in-process transport; like the TCP server, it stamps the
// name on every report itself. Grants are fresh for exactly one
// allocation round, mirroring the lockstep cluster loop where every
// round is consumed at the bin barrier that produced it.
func NewLoopback(coord *Coordinator, name string, minShare float64) NodeTransport {
	coord.join(name, minShare)
	return &loopbackTransport{coord: coord, name: name}
}

func (t *loopbackTransport) Report(r DemandReport) error {
	r.Node = t.name
	t.coord.report(r, time.Now())
	return nil
}

func (t *loopbackTransport) Grant() (BudgetGrant, bool) { return t.coord.grantFor(t.name) }

// Checkpoint retains the blob directly on the in-process coordinator.
func (t *loopbackTransport) Checkpoint(blob []byte, bin int64, final bool) error {
	t.coord.storeCheckpoint(t.name, bin, final, blob)
	return nil
}

// DrainRequested polls the coordinator's drain flag for this node.
func (t *loopbackTransport) DrainRequested() bool { return t.coord.drainRequested(t.name) }

// --- wire encoding ---

const (
	coordMsgHello      = 0x01
	coordMsgReport     = 0x02
	coordMsgGrant      = 0x03
	coordMsgCheckpoint = 0x04
	coordMsgAdopt      = 0x05
	coordMsgHelloAuth  = 0x06
	coordMsgDrain      = 0x07
	coordMsgChallenge  = 0x08
	coordMsgSpill      = 0x09

	reportFlagDone = 0x01
	ckptFlagFinal  = 0x01

	// coordMaxName bounds worker names on the wire (u8 length).
	coordMaxName = 255

	// coordNonceLen/coordMACLen size the auth challenge and its
	// HMAC-SHA256 response.
	coordNonceLen = 16
	coordMACLen   = sha256.Size

	// maxCheckpointBytes bounds the raw blob a checkpoint or adopt
	// header may announce; anything larger is a protocol violation and
	// the connection dies.
	maxCheckpointBytes = 64 << 20

	// coordHelloTimeout bounds the server's side of the handshake;
	// coordDialTimeout bounds each client (re)connection attempt, its
	// side of the handshake and each report write; coordRetryMin/Max
	// bound the client's reconnect backoff.
	coordHelloTimeout = 5 * time.Second
	coordDialTimeout  = 2 * time.Second
	coordRetryMin     = 100 * time.Millisecond
	coordRetryMax     = 2 * time.Second
)

// ckptRecvTimeout bounds moving a checkpoint blob once its header is on
// the wire (the header promised blobLen bytes are already in flight).
// A variable only so a test of the stalled-peer path need not wait it
// out.
var ckptRecvTimeout = 30 * time.Second

// ErrCoordinatorUnreachable is returned by CoordClient.Report while no
// connection to the coordinator is up; the caller sheds locally and
// retries next bin while the client redials in the background.
var ErrCoordinatorUnreachable = errors.New("control: coordinator unreachable")

// Message bodies: each struct is the wire layout of what follows the
// type byte (and, for hello, helloAuth and adopt, the name) — fields in
// order, little-endian, floats as IEEE-754 bits. encoding/binary derives
// the encoder, the decoder and, through binary.Size, the one payload
// length a decoder accepts from it.
type (
	helloBody  struct{ MinShare float64 }
	reportBody struct {
		Bin              int64
		Demand, MinShare float64
		Flags            uint8
	}
	grantBody struct {
		Round    uint64
		Capacity float64
	}
	checkpointBody struct {
		Bin     int64
		Flags   uint8
		BlobLen uint32
	}
	adoptBody struct {
		Bin     int64
		BlobLen uint32
	}
	challengeBody struct{ Nonce [coordNonceLen]byte }
)

// coordNamed reports whether msg carries a name (u8 length, then the
// bytes) between its type byte and its body.
func coordNamed(msg byte) bool {
	return msg == coordMsgHello || msg == coordMsgHelloAuth || msg == coordMsgAdopt || msg == coordMsgSpill
}

// appendFrame appends one length-prefixed frame: type byte, name when
// the message has one, body (nil for none).
func appendFrame(dst []byte, msg byte, name string, body any) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, msg)
	if coordNamed(msg) {
		dst = append(append(dst, byte(len(name))), name...)
	}
	if body != nil {
		dst, _ = binary.Append(dst, binary.LittleEndian, body) // fixed-size struct: cannot fail
	}
	return sealFrame(dst, off)
}

// sealFrame writes the u16 length of the frame that starts at off.
func sealFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint16(dst[off:], uint16(len(dst)-off-2))
	return dst
}

// decodeFrame decodes payload p — type byte, name when the message has
// one, body — and accepts exactly one length: what is left after the
// name must be binary.Size(body) bytes. An empty name is refused.
func decodeFrame(p []byte, body any) (name string, ok bool) {
	if len(p) == 0 {
		return "", false
	}
	msg, p := p[0], p[1:]
	if coordNamed(msg) {
		if len(p) == 0 || p[0] == 0 || len(p) < 1+int(p[0]) {
			return "", false
		}
		nl := 1 + int(p[0]) // in int: a 255-byte name must not wrap the u8
		name, p = string(p[1:nl]), p[nl:]
	}
	if len(p) != binary.Size(body) {
		return "", false
	}
	_, err := binary.Decode(p, binary.LittleEndian, body)
	return name, err == nil
}

// flagBit encodes a bool as a flags byte; flagSet decodes one, refusing
// undefined bits so there is one wire form per message (FuzzCoordWire).
func flagBit(on bool, bit uint8) uint8 {
	if on {
		return bit
	}
	return 0
}

func flagSet(flags, bit uint8) (on, ok bool) { return flags&bit != 0, flags&^bit == 0 }

// quantity vets a demand, share or capacity read off the wire. These
// feed the allocator and the engine's capacity directly, so NaN, ±Inf and
// negative values are refused at decode (FuzzCoordWire).
func quantity(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func appendHelloFrame(dst []byte, name string, minShare float64) []byte {
	return appendFrame(dst, coordMsgHello, name, helloBody{minShare})
}

func decodeHello(p []byte) (name string, minShare float64, ok bool) {
	var b helloBody
	name, ok = decodeFrame(p, &b)
	return name, b.MinShare, ok && quantity(b.MinShare)
}

func appendReportFrame(dst []byte, r DemandReport) []byte {
	return appendFrame(dst, coordMsgReport, "", reportBody{r.Bin, r.Demand, r.MinShare, flagBit(r.Done, reportFlagDone)})
}

func decodeReport(p []byte) (DemandReport, bool) {
	var b reportBody
	_, ok := decodeFrame(p, &b)
	done, okF := flagSet(b.Flags, reportFlagDone)
	return DemandReport{Bin: b.Bin, Demand: b.Demand, MinShare: b.MinShare, Done: done},
		ok && okF && quantity(b.Demand) && quantity(b.MinShare)
}

func appendGrantFrame(dst []byte, g BudgetGrant) []byte {
	return appendFrame(dst, coordMsgGrant, "", grantBody{g.Round, g.Capacity})
}

func decodeGrant(p []byte) (BudgetGrant, bool) {
	var b grantBody
	_, ok := decodeFrame(p, &b)
	return BudgetGrant{Round: b.Round, Capacity: b.Capacity}, ok && quantity(b.Capacity)
}

// appendCheckpointFrame builds the checkpoint header; the caller writes
// blobLen raw blob bytes right after the frame.
func appendCheckpointFrame(dst []byte, bin int64, final bool, blobLen int) []byte {
	return appendFrame(dst, coordMsgCheckpoint, "", checkpointBody{bin, flagBit(final, ckptFlagFinal), uint32(blobLen)})
}

func decodeCheckpointHdr(p []byte) (bin int64, final bool, blobLen int, ok bool) {
	var b checkpointBody
	_, ok = decodeFrame(p, &b)
	final, okF := flagSet(b.Flags, ckptFlagFinal)
	return b.Bin, final, int(b.BlobLen), ok && okF && b.BlobLen <= maxCheckpointBytes
}

// appendAdoptFrame builds the adopt header; the caller appends blobLen
// raw blob bytes right after the frame (one write, so grant pushes
// cannot interleave).
func appendAdoptFrame(dst []byte, shard string, bin int64, blobLen int) []byte {
	return appendFrame(dst, coordMsgAdopt, shard, adoptBody{bin, uint32(blobLen)})
}

func decodeAdoptHdr(p []byte) (shard string, bin int64, blobLen int, ok bool) {
	var b adoptBody
	shard, ok = decodeFrame(p, &b)
	return shard, b.Bin, int(b.BlobLen), ok && b.BlobLen <= maxCheckpointBytes
}

// appendSpillFrame builds the header of a state-directory file; the
// blobLen blob bytes follow it in the file. Its body is the checkpoint
// header's.
func appendSpillFrame(dst []byte, shard string, bin int64, final bool, blobLen int) []byte {
	return appendFrame(dst, coordMsgSpill, shard, checkpointBody{bin, flagBit(final, ckptFlagFinal), uint32(blobLen)})
}

func decodeSpillHdr(p []byte) (shard string, bin int64, final bool, blobLen int, ok bool) {
	var b checkpointBody
	shard, ok = decodeFrame(p, &b)
	final, okF := flagSet(b.Flags, ckptFlagFinal)
	return shard, b.Bin, final, int(b.BlobLen), ok && okF && p[0] == coordMsgSpill && b.BlobLen <= maxCheckpointBytes
}

func appendDrainFrame(dst []byte) []byte { return appendFrame(dst, coordMsgDrain, "", nil) }

func appendChallengeFrame(dst []byte, nonce []byte) []byte {
	return appendFrame(dst, coordMsgChallenge, "", challengeBody{[coordNonceLen]byte(nonce)})
}

// appendHelloAuthFrame is the hello in authenticated form: the plain
// hello payload followed by HMAC-SHA256(key, nonce || payload).
func appendHelloAuthFrame(dst []byte, name string, minShare float64, key string, nonce []byte) []byte {
	off := len(dst)
	dst = appendFrame(dst, coordMsgHelloAuth, name, helloBody{minShare})
	return sealFrame(append(dst, helloMAC(key, nonce, dst[off+2:])...), off)
}

// decodeHelloAuth verifies an authenticated hello against the server's
// key and the nonce it challenged with, then decodes the hello in front
// of the MAC.
func decodeHelloAuth(p []byte, key string, nonce []byte) (name string, minShare float64, ok bool) {
	if len(p) < coordMACLen {
		return "", 0, false
	}
	body, mac := p[:len(p)-coordMACLen], p[len(p)-coordMACLen:]
	if !hmac.Equal(mac, helloMAC(key, nonce, body)) {
		return "", 0, false
	}
	return decodeHello(body)
}

// helloMAC computes HMAC-SHA256(key, nonce || payload).
func helloMAC(key string, nonce, payload []byte) []byte {
	h := hmac.New(sha256.New, []byte(key))
	h.Write(nonce)
	h.Write(payload)
	return h.Sum(nil)
}

// readCoordFrame reads one length-prefixed frame into buf (grown as
// needed) and returns the payload; the payload is only valid until the
// next call with the same buf. It reads exactly the frame's bytes, so
// it is safe on a bare connection as well as behind a bufio.Reader.
func readCoordFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- the link under both ends ---

// link is one end of a coordinator connection — the socket handling the
// server and the client share: frames in through one buffered reader
// (so nothing read ahead during the handshake is lost to the stream
// after it), messages out through one locked write, and the raw blob
// behind a checkpoint or adopt header read under a deadline into a
// buffer that grows only as bytes arrive.
type link struct {
	c    net.Conn
	br   *bufio.Reader
	rbuf []byte // readFrame's payload, reused

	wmu  sync.Mutex
	wbuf []byte // send's message, reused
}

func newLink(c net.Conn) *link { return &link{c: c, br: bufio.NewReaderSize(c, 512)} }

// send builds one message into the link's reused buffer and writes it
// in a single locked write under a deadline: frames from concurrent
// senders cannot interleave, nor can anything split a header from the
// blob built behind it.
func (l *link) send(timeout time.Duration, build func(buf []byte) []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = build(l.wbuf[:0])
	l.c.SetWriteDeadline(time.Now().Add(timeout))
	_, err := l.c.Write(l.wbuf)
	l.c.SetWriteDeadline(time.Time{})
	return err
}

// readFrame returns the next frame's payload, valid until the next
// call. A positive timeout bounds the wait: handshake frames must
// arrive promptly, while the streams after them are paced by the peer's
// bins and heartbeats and wait without one.
func (l *link) readFrame(timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		l.c.SetReadDeadline(time.Now().Add(timeout))
		defer l.c.SetReadDeadline(time.Time{})
	}
	var err error
	l.rbuf, err = readCoordFrame(l.br, l.rbuf) // nil on error: no caller reads on
	return l.rbuf, err
}

// readBlob reads the n raw bytes a checkpoint or adopt header
// announced (n <= maxCheckpointBytes: the header decoders refuse more).
// The sender serialized the blob before writing the header, so the
// bytes are in flight and ckptRecvTimeout bounds the read on either
// side; a peer that stalls mid-blob costs its connection, not the
// reader. The buffer grows as bytes arrive, so a header that lies about
// its blob costs what was actually sent, not what was claimed.
func (l *link) readBlob(n int) ([]byte, error) {
	l.c.SetReadDeadline(time.Now().Add(ckptRecvTimeout))
	defer l.c.SetReadDeadline(time.Time{})
	var blob bytes.Buffer
	if _, err := io.CopyN(&blob, l.br, int64(n)); err != nil {
		return nil, err
	}
	return blob.Bytes(), nil
}

// --- TCP server (coordinator side) ---

// CoordServerConfig tunes the coordinator's heartbeat state machine.
type CoordServerConfig struct {
	// Heartbeat is the allocation cadence: every tick the coordinator
	// runs allocateLease over the reports received so far and pushes
	// fresh grants to every connected worker. Default 500ms.
	Heartbeat time.Duration
	// Lease is how long a silent worker stays in the allocation before
	// being marked partitioned (its budget then redistributes to the
	// survivors). Default 3×Heartbeat. Workers use the same value to
	// judge grant freshness, so keep the two sides configured alike.
	// An issued adoption offer suppresses re-offering for 2×Lease; past
	// that the shard re-offers to the next live candidate.
	Lease time.Duration
	// Grace is how long past the lease a partitioned shard waits before
	// its checkpoint is offered for adoption — the window in which a
	// transient stall rejoins without a failover. Default 2×Lease.
	Grace time.Duration
	// Key enables pre-shared-key authentication: connections must answer
	// the HMAC-SHA256 challenge or are rejected (and counted). Empty
	// keeps the unauthenticated protocol byte-for-byte.
	Key string
}

func (c CoordServerConfig) withDefaults() CoordServerConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = 3 * c.Heartbeat
	}
	if c.Grace <= 0 {
		c.Grace = 2 * c.Lease
	}
	return c
}

// CoordServer exposes a Coordinator over TCP: it accepts worker
// connections, folds their report streams into the coordinator, and on
// every heartbeat allocates and empties each connected worker's mailbox
// onto its connection. Close stops the listener, the heartbeat, and
// every worker connection.
type CoordServer struct {
	coord *Coordinator
	cfg   CoordServerConfig
	ln    net.Listener

	mu    sync.Mutex
	conns map[string]*link

	quit    chan struct{}
	wg      sync.WaitGroup
	closing atomic.Bool

	authFailures atomic.Int64
}

// AuthFailures returns how many connections failed the pre-shared-key
// handshake (lsd_coord_auth_failures_total).
func (s *CoordServer) AuthFailures() int64 { return s.authFailures.Load() }

// ServeCoordinator serves coord on ln until Close. The listener is
// adopted: Close closes it.
func ServeCoordinator(ln net.Listener, coord *Coordinator, cfg CoordServerConfig) *CoordServer {
	s := &CoordServer{
		coord: coord,
		cfg:   cfg.withDefaults(),
		ln:    ln,
		conns: make(map[string]*link),
		quit:  make(chan struct{}),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.heartbeatLoop()
	return s
}

// Addr returns the listening address.
func (s *CoordServer) Addr() net.Addr { return s.ln.Addr() }

// Coordinator returns the coordinator being served (for status planes).
func (s *CoordServer) Coordinator() *Coordinator { return s.coord }

// Close shuts the server down: no new connections, no more heartbeats,
// all worker connections closed.
func (s *CoordServer) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	close(s.quit)
	err := s.ln.Close()
	s.mu.Lock()
	for _, l := range s.conns {
		l.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *CoordServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// handshake admits a new connection: a keyed server opens with a
// challenge and requires the hello in authenticated form; a keyless one
// never writes the challenge, keeping the original byte stream exactly.
// Either way the hello must arrive promptly.
func (s *CoordServer) handshake(l *link) (name string, minShare float64, ok bool) {
	var nonce []byte
	if s.cfg.Key != "" {
		nonce = make([]byte, coordNonceLen)
		if _, err := rand.Read(nonce); err != nil {
			return "", 0, false
		}
		if l.send(coordHelloTimeout, func(b []byte) []byte { return appendChallengeFrame(b, nonce) }) != nil {
			return "", 0, false
		}
	}
	frame, err := l.readFrame(coordHelloTimeout)
	if err != nil || len(frame) < 1 {
		return "", 0, false
	}
	switch {
	case s.cfg.Key == "" && frame[0] == coordMsgHello:
		name, minShare, ok = decodeHello(frame)
	case s.cfg.Key != "" && frame[0] == coordMsgHelloAuth:
		name, minShare, ok = decodeHelloAuth(frame, s.cfg.Key, nonce)
		if !ok {
			s.authFailures.Add(1) // bad MAC: wrong key
		}
	case frame[0] == coordMsgHello || frame[0] == coordMsgHelloAuth:
		// Keyed server got a plain hello, or keyless got an authenticated
		// one: a key mismatch between the two sides either way.
		s.authFailures.Add(1)
	}
	return name, minShare, ok
}

func (s *CoordServer) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	l := newLink(c)
	name, minShare, ok := s.handshake(l)
	if !ok {
		return
	}
	s.coord.join(name, minShare)

	s.mu.Lock()
	if old := s.conns[name]; old != nil {
		old.c.Close() // a reconnecting worker supersedes its stale conn
	}
	s.conns[name] = l
	s.mu.Unlock()

	// Everything after the hello is paced by the worker's bins, so no
	// deadline applies to the report stream.
readLoop:
	for {
		frame, err := l.readFrame(0)
		if err != nil {
			break
		}
		if len(frame) < 1 {
			continue
		}
		switch frame[0] {
		case coordMsgReport:
			if r, ok := decodeReport(frame); ok {
				r.Node = name
				s.coord.report(r, time.Now())
			}
		case coordMsgCheckpoint:
			bin, final, blobLen, ok := decodeCheckpointHdr(frame)
			if !ok {
				break readLoop // oversized or malformed header: protocol violation
			}
			blob, err := l.readBlob(blobLen)
			if err != nil {
				break readLoop
			}
			s.coord.storeCheckpoint(name, bin, final, blob)
		}
	}

	s.mu.Lock()
	if s.conns[name] == l {
		delete(s.conns, name)
	}
	s.mu.Unlock()
}

func (s *CoordServer) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	var names []string
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		s.coord.allocateLease(now, s.cfg.Lease)
		s.coord.planFailover(now, s.cfg.Grace, 2*s.cfg.Lease)
		names = names[:0]
		s.mu.Lock()
		for name := range s.conns {
			names = append(names, name)
		}
		s.mu.Unlock()
		for _, name := range names {
			s.pump(name)
		}
	}
}

// pump empties name's mailbox onto its connection: the fresh grant, a
// pending drain, an adoption offer. The drain frame re-sends every
// heartbeat until the final checkpoint lands (idempotent on the worker
// side), so a lost frame only delays the drain one heartbeat. An offer
// goes header and blob in one send, so grant pushes cannot interleave
// mid-blob; one that cannot be delivered is put back for the next
// heartbeat rather than waiting out the offer timeout.
func (s *CoordServer) pump(name string) {
	if g, ok := s.coord.grantFor(name); ok {
		s.sendTo(name, s.cfg.Heartbeat, func(b []byte) []byte { return appendGrantFrame(b, g) })
	}
	if s.coord.drainRequested(name) {
		s.sendTo(name, s.cfg.Heartbeat, appendDrainFrame)
	}
	if o, ok := s.coord.takeOfferFor(name); ok {
		// Blobs outweigh grant frames.
		delivered := s.sendTo(name, max(s.cfg.Heartbeat, 2*time.Second), func(b []byte) []byte {
			return append(appendAdoptFrame(b, o.Shard, o.Bin, len(o.Checkpoint)), o.Checkpoint...)
		})
		if !delivered {
			s.coord.untakeOffer(o.Shard, name)
		}
	}
}

// sendTo writes one message to the named worker's connection and
// reports whether it was delivered. A failed write closes the
// connection; its reader notices and unregisters it.
func (s *CoordServer) sendTo(name string, timeout time.Duration, build func([]byte) []byte) bool {
	s.mu.Lock()
	l := s.conns[name]
	s.mu.Unlock()
	if l == nil {
		return false
	}
	if l.send(timeout, build) != nil {
		l.c.Close()
		return false
	}
	return true
}

// --- TCP client (worker side) ---

// CoordClientConfig tunes a worker's coordinator link. Dial attempts
// and report writes are bounded by coordDialTimeout; reconnects back
// off from coordRetryMin to coordRetryMax, each wait jittered to
// [backoff/2, backoff) from a stream seeded with the worker name, so a
// fleet that lost its coordinator does not redial in lockstep yet every
// run of a given worker waits the same deterministic schedule.
type CoordClientConfig struct {
	// MinShare is the demand fraction announced in the hello (see
	// Shard.MinShare).
	MinShare float64
	// Lease bounds grant freshness: a grant older than this is ignored
	// and the worker degrades to local-only shedding. Default 1.5s —
	// 3× the default server heartbeat; match it to the server's Lease.
	Lease time.Duration
	// Key must match the coordinator's key when it has one:
	// the client then answers the server's HMAC-SHA256 challenge in its
	// hello. Empty speaks the unauthenticated protocol.
	Key string
}

// CoordClient is a worker's NodeTransport over TCP. It maintains the
// connection in the background — dialing, re-helloing after every
// reconnect (the rejoin path), and folding pushed grants into a leased
// local copy — so Report and Grant never block on the network beyond a
// single bounded write.
type CoordClient struct {
	addr string
	name string
	cfg  CoordClientConfig

	mu      sync.Mutex
	link    *link
	grant   BudgetGrant
	grantAt time.Time

	quit       chan struct{}
	wg         sync.WaitGroup
	closed     atomic.Bool
	connected  atomic.Bool
	reconnects atomic.Int64

	// Failover surface: pushed adoption offers queue here for the host
	// process; drainReq latches a pushed drain frame for the Node's
	// boundary hook. rng drives the reconnect jitter.
	adoptCh  chan AdoptOffer
	drainReq atomic.Bool
	rng      *ihash.XorShift
}

// DialCoordinator connects a worker named name to the coordinator at
// addr. The first dial happens synchronously so configuration errors
// surface immediately; if it fails, the returned client is still live
// and keeps retrying in the background (the worker starts degraded and
// joins when the coordinator appears), so a non-nil error with a
// non-nil client is a warning, not a failure. Only an invalid name
// returns a nil client.
func DialCoordinator(addr, name string, cfg CoordClientConfig) (*CoordClient, error) {
	if name == "" || len(name) > coordMaxName {
		return nil, fmt.Errorf("control: worker name must be 1..%d bytes, got %d", coordMaxName, len(name))
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 1500 * time.Millisecond
	}
	c := &CoordClient{
		addr: addr, name: name, cfg: cfg, quit: make(chan struct{}),
		// The coordinator collects one offer per adopter per heartbeat; 8
		// rides out a host slow to start the shards it was offered.
		adoptCh: make(chan AdoptOffer, 8),
		rng:     ihash.NewXorShift(fnv64a(name)),
	}
	err := c.connect()
	c.wg.Add(1)
	go c.maintain()
	return c, err
}

// fnv64a hashes a worker name into its jitter seed (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// backoffJitter spreads a backoff wait over [d/2, d), drawn from the
// client's name-seeded stream: deterministic per worker, decorrelated
// across a fleet.
func backoffJitter(rng *ihash.XorShift, d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// Connected reports whether a coordinator connection is currently up.
func (c *CoordClient) Connected() bool { return c.connected.Load() }

// Degraded reports whether the worker is currently shedding on local
// capacity only, i.e. holds no grant fresher than the lease.
func (c *CoordClient) Degraded() bool {
	_, ok := c.Grant()
	return !ok
}

// Reconnects returns how many times the background loop re-established
// the connection after a loss (or an initially unreachable coordinator).
func (c *CoordClient) Reconnects() int64 { return c.reconnects.Load() }

func (c *CoordClient) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, coordDialTimeout)
	if err != nil {
		return err
	}
	l := newLink(conn)
	hello := func(b []byte) []byte { return appendHelloFrame(b, c.name, c.cfg.MinShare) }
	if c.cfg.Key != "" {
		// A keyed client expects the challenge before anything else.
		nonce, err := readChallenge(l)
		if err != nil {
			conn.Close()
			return fmt.Errorf("control: coordinator auth: %w (keyless coordinator or wrong address?)", err)
		}
		hello = func(b []byte) []byte { return appendHelloAuthFrame(b, c.name, c.cfg.MinShare, c.cfg.Key, nonce) }
	}
	if err := l.send(coordDialTimeout, hello); err != nil {
		conn.Close()
		return err
	}
	c.mu.Lock()
	c.link = l
	c.mu.Unlock()
	c.connected.Store(true)
	return nil
}

// readChallenge reads the server's challenge frame and returns the
// nonce.
func readChallenge(l *link) ([]byte, error) {
	p, err := l.readFrame(coordDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("no challenge: %w", err)
	}
	var b challengeBody
	if _, ok := decodeFrame(p, &b); !ok || p[0] != coordMsgChallenge {
		return nil, errors.New("unexpected frame where challenge expected")
	}
	return b.Nonce[:], nil
}

func (c *CoordClient) current() *link {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.link
}

func (c *CoordClient) drop(l *link) {
	l.c.Close()
	c.mu.Lock()
	if c.link == l {
		c.link = nil
		c.connected.Store(false)
	}
	c.mu.Unlock()
}

func (c *CoordClient) maintain() {
	defer c.wg.Done()
	backoff := coordRetryMin
	for !c.closed.Load() {
		l := c.current()
		if l == nil {
			select {
			case <-c.quit:
				return
			case <-time.After(backoffJitter(c.rng, backoff)):
			}
			backoff = min(2*backoff, coordRetryMax)
			if c.connect() == nil {
				c.reconnects.Add(1)
				backoff = coordRetryMin
			}
			continue
		}
		c.readGrants(l) // blocks until the connection dies
		c.drop(l)
	}
}

// readGrants drains coordinator pushes from l: grants into the leased
// local copy, drain requests into the latch, adoption offers (header +
// raw blob) into the host's queue.
func (c *CoordClient) readGrants(l *link) {
	for {
		frame, err := l.readFrame(0)
		if err != nil {
			return
		}
		if len(frame) < 1 {
			continue
		}
		switch frame[0] {
		case coordMsgGrant:
			if g, ok := decodeGrant(frame); ok {
				g.Node = c.name
				c.mu.Lock()
				c.grant = g
				c.grantAt = time.Now()
				c.mu.Unlock()
			}
		case coordMsgDrain:
			c.drainReq.Store(true)
		case coordMsgAdopt:
			shard, bin, blobLen, ok := decodeAdoptHdr(frame)
			if !ok {
				return // malformed push: drop the conn, redial clean
			}
			blob, err := l.readBlob(blobLen)
			if err != nil {
				return
			}
			select {
			case c.adoptCh <- AdoptOffer{Shard: shard, Bin: bin, Checkpoint: blob}:
			default:
				// Queue full: drop; the coordinator re-offers after its
				// offer timeout, and likely elsewhere.
			}
		}
	}
}

// send writes one message on the current link. While disconnected it
// returns ErrCoordinatorUnreachable; a failed write drops the
// connection and the maintain loop redials and re-joins.
func (c *CoordClient) send(timeout time.Duration, build func(buf []byte) []byte) error {
	l := c.current()
	if l == nil {
		return ErrCoordinatorUnreachable
	}
	err := l.send(timeout, build)
	if err != nil {
		c.drop(l)
	}
	return err
}

// Report sends a demand report; while disconnected it returns
// ErrCoordinatorUnreachable and the caller proceeds on local capacity.
func (c *CoordClient) Report(r DemandReport) error {
	return c.send(coordDialTimeout, func(buf []byte) []byte { return appendReportFrame(buf, r) })
}

// Checkpoint ships an encoded shard checkpoint to the coordinator: the
// header frame and the blob in one write. While disconnected it returns
// ErrCoordinatorUnreachable — checkpointing is advisory and the next
// boundary retries.
func (c *CoordClient) Checkpoint(blob []byte, bin int64, final bool) error {
	if len(blob) > maxCheckpointBytes {
		return fmt.Errorf("control: checkpoint blob %d bytes exceeds the %d wire cap", len(blob), maxCheckpointBytes)
	}
	return c.send(ckptRecvTimeout, func(buf []byte) []byte {
		return append(appendCheckpointFrame(buf, bin, final, len(blob)), blob...)
	})
}

// DrainRequested reports whether the coordinator pushed a drain frame
// on this link (it latches; the worker process is expected to act once
// and exit the shard).
func (c *CoordClient) DrainRequested() bool { return c.drainReq.Load() }

// Adoptions delivers the adoption offers pushed on this link, each once.
// Adopting means building a new engine next to the existing one, which
// is the hosting process's job (cmd/lsd's adoption loop), not the
// transport's.
func (c *CoordClient) Adoptions() <-chan AdoptOffer { return c.adoptCh }

// Grant returns the latest pushed grant while it is lease-fresh.
func (c *CoordClient) Grant() (BudgetGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.grantAt.IsZero() || time.Since(c.grantAt) > c.cfg.Lease {
		return BudgetGrant{}, false
	}
	return c.grant, true
}

// Close stops the background loop and closes any live connection.
func (c *CoordClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.quit)
	if l := c.current(); l != nil {
		c.drop(l)
	}
	c.wg.Wait()
	return nil
}
