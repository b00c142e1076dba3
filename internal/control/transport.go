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
// Across processes the same protocol runs as length-prefixed binary
// frames (the framing idiom of internal/trace/live.go: little-endian
// uint16 payload length, then the payload). Each end of it is a set of
// clock-free steps that take the time from their caller and emit frames
// through a send function: the coordinator's (admit, serve, tick, pump
// in coord.go and failover.go) and the worker's (workerLink below). A
// connection starts with a hello frame naming the worker; the worker
// then streams report frames and the coordinator pushes grant frames
// on its heartbeat. Two drivers run the steps: the TCP server and
// client at the end of this file, over sockets and the wall clock, and
// the test-only simulator (sim_test.go) over a frame queue and a
// virtual clock.
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
	"hash/fnv"
	"io"
	"maps"
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

// Report stamps no time: the lockstep AllocateRound never reads a
// report's arrival, so the loopback reads no clock.
func (t *loopbackTransport) Report(r DemandReport) error {
	r.Node = t.name
	t.coord.report(r, time.Time{})
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

// trailerLen returns how many raw blob bytes follow non-empty payload p
// on the stream: a checkpoint or adopt header's blobLen, none for other
// messages. ok=false for a malformed or oversized header, a protocol
// violation that costs the connection.
func trailerLen(p []byte) (n int, ok bool) {
	switch p[0] {
	case coordMsgCheckpoint:
		_, _, n, ok = decodeCheckpointHdr(p)
	case coordMsgAdopt:
		_, _, n, ok = decodeAdoptHdr(p)
	default:
		ok = true
	}
	return n, ok
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

// --- the worker end: clock-free steps ---

// workerLink is the worker end of the protocol: the hello that opens a
// connection, what each frame the coordinator pushes does, whether the
// latest grant is lease-fresh at a given time, and when to redial after
// a loss. It reads no clock and touches no socket; CoordClient drives
// it with wall-clock times, the simulator with virtual ones.
type workerLink struct {
	name     string
	cfg      CoordClientConfig
	grant    BudgetGrant
	grantAt  time.Time // arrival of grant; zero = none yet
	drainReq bool      // a drain frame arrived; latches
	backoff  time.Duration
	rng      *ihash.XorShift // reconnect jitter, seeded from the name
}

func newWorkerLink(name string, cfg CoordClientConfig) workerLink {
	return workerLink{name: name, cfg: cfg, backoff: coordRetryMin, rng: ihash.NewXorShift(fnv64a(name))}
}

// hello appends the connection's opening frame: the plain hello, or the
// authenticated one over the coordinator's challenge nonce when the
// link has a key.
func (w *workerLink) hello(b, nonce []byte) []byte {
	if w.cfg.Key != "" {
		return appendHelloAuthFrame(b, w.name, w.cfg.MinShare, w.cfg.Key, nonce)
	}
	return appendHelloFrame(b, w.name, w.cfg.MinShare)
}

// joined restarts the redial schedule once a hello is on the wire.
func (w *workerLink) joined() { w.backoff = coordRetryMin }

// redialAt schedules the next dial after a loss or a failed attempt at
// now: a wait jittered to [backoff/2, backoff), after which the backoff
// doubles up to coordRetryMax.
func (w *workerLink) redialAt(now time.Time) time.Time {
	at := now.Add(backoffJitter(w.rng, w.backoff))
	w.backoff = min(2*w.backoff, coordRetryMax)
	return at
}

// frame is the per-frame step for non-empty payload p and the blob
// behind it, arriving at now: a grant becomes the leased local copy, a
// drain latches, and an adopt header is returned as the offer it
// carries, for the host process to take up.
func (w *workerLink) frame(p, blob []byte, now time.Time) (AdoptOffer, bool) {
	switch p[0] {
	case coordMsgGrant:
		if g, ok := decodeGrant(p); ok {
			g.Node = w.name
			w.grant, w.grantAt = g, now
		}
	case coordMsgDrain:
		w.drainReq = true
	case coordMsgAdopt:
		shard, bin, _, ok := decodeAdoptHdr(p)
		return AdoptOffer{Shard: shard, Bin: bin, Checkpoint: blob}, ok
	}
	return AdoptOffer{}, false
}

// fresh returns the latest grant while it is no older than the lease at
// now; ok=false sends the node back to its local capacity.
func (w *workerLink) fresh(now time.Time) (BudgetGrant, bool) {
	if w.grantAt.IsZero() || now.Sub(w.grantAt) > w.cfg.Lease {
		return BudgetGrant{}, false
	}
	return w.grant, true
}

// fnv64a hashes a worker name into its jitter seed (FNV-1a).
func fnv64a(s string) uint64 { h := fnv.New64a(); h.Write([]byte(s)); return h.Sum64() }

// backoffJitter spreads a backoff wait over [d/2, d), drawn from the
// link's name-seeded stream: deterministic per worker, decorrelated
// across a fleet.
func backoffJitter(rng *ihash.XorShift, d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// --- the TCP drivers ---
//
// CoordServer runs the coordinator's steps and CoordClient a worker's
// workerLink over sockets; what is left to them is what a simulator
// cannot share: sockets, goroutines, deadlines and wall-clock reads.
// Every one of those in this package lives below this line.

// ckptRecvTimeout bounds moving a checkpoint blob once its header is on
// the wire (the header promised blobLen bytes are already in flight).
// A variable only so a test of the stalled-peer path need not wait it
// out.
var ckptRecvTimeout = 30 * time.Second

// ErrCoordinatorUnreachable is returned by CoordClient.Report while no
// connection to the coordinator is up; the caller sheds locally and
// retries next bin while the client redials in the background.
var ErrCoordinatorUnreachable = errors.New("control: coordinator unreachable")

// --- the link under both ends ---

// link is one end of a coordinator connection — the socket handling the
// server and the client share: messages in through one buffered reader
// (so nothing read ahead during the handshake is lost to the stream
// after it), messages out through one locked write, and the raw blob
// behind a checkpoint or adopt header read under a deadline into a
// buffer that grows only as bytes arrive.
type link struct {
	c  net.Conn
	br *bufio.Reader

	// A write's deadline: frameTimeout, or blobTimeout for a message
	// that carries a blob.
	frameTimeout, blobTimeout time.Duration

	wmu  sync.Mutex
	wbuf []byte // send's message, reused
}

// send builds one message into the link's reused buffer and writes it
// in a single locked write under a deadline: frames from concurrent
// senders cannot interleave, nor can anything split a header from the
// blob built behind it. A failed write closes the connection; its
// reader notices and the driver lets the link go.
func (l *link) send(build func(buf []byte) []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.wbuf = build(l.wbuf[:0])
	timeout := l.frameTimeout
	if m := l.wbuf[2]; m == coordMsgCheckpoint || m == coordMsgAdopt {
		timeout = l.blobTimeout
	}
	l.c.SetWriteDeadline(time.Now().Add(timeout))
	_, err := l.c.Write(l.wbuf)
	l.c.SetWriteDeadline(time.Time{})
	if err != nil {
		l.c.Close()
	}
	return err
}

// readMsg returns the stream's next message: a non-empty payload, and
// the blob behind it when it is a checkpoint or adopt header. A
// positive timeout bounds the wait: handshake frames must arrive
// promptly, while the streams after them are paced by the peer's bins
// and heartbeats and wait without one. Empty frames are skipped; a
// malformed blob header is an error, and costs the connection.
func (l *link) readMsg(timeout time.Duration) (p, blob []byte, err error) {
	if timeout > 0 {
		l.c.SetReadDeadline(time.Now().Add(timeout))
		defer l.c.SetReadDeadline(time.Time{})
	}
	for len(p) == 0 {
		if p, err = readCoordFrame(l.br, nil); err != nil {
			return nil, nil, err
		}
	}
	n, ok := trailerLen(p)
	if !ok {
		return nil, nil, errors.New("control: malformed blob header")
	}
	if n == 0 {
		return p, nil, nil
	}
	// The blob: n <= maxCheckpointBytes, which the header decoders
	// enforce. The sender serialized the blob before writing the header,
	// so the bytes are in flight and ckptRecvTimeout bounds the read on
	// either side; a peer that stalls mid-blob costs its connection, not
	// the reader. The buffer grows as bytes arrive, so a header that lies
	// about its blob costs what was actually sent, not what was claimed.
	l.c.SetReadDeadline(time.Now().Add(ckptRecvTimeout))
	defer l.c.SetReadDeadline(time.Time{})
	var b bytes.Buffer
	if _, err := io.CopyN(&b, l.br, int64(n)); err != nil {
		return nil, nil, err
	}
	return p, b.Bytes(), nil
}

// --- TCP server (coordinator side) ---

// CoordServerConfig tunes the coordinator's heartbeat state machine.
type CoordServerConfig struct {
	// Heartbeat is the allocation cadence: every tick the coordinator
	// allocates over the reports received so far and pushes fresh
	// grants to every connected worker. Default 500ms.
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
// connections, feeds their frames to the coordinator's steps, and on
// every heartbeat ticks the coordinator and pumps each connected
// worker's mailbox onto its connection. Close stops the listener, the
// heartbeat, and every worker connection.
type CoordServer struct {
	coord *Coordinator
	cfg   CoordServerConfig
	ln    net.Listener

	mu    sync.Mutex
	conns conns[*link]

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
		conns: make(conns[*link]),
		quit:  make(chan struct{}),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.heartbeatLoop()
	return s
}

// Addr returns the listening address.
func (s *CoordServer) Addr() net.Addr { return s.ln.Addr() }

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

// handleConn admits a connection — a keyed server opens with a
// challenge, and the hello must arrive promptly — and feeds the frames
// after the hello to the coordinator until the connection dies.
func (s *CoordServer) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	// Blobs outweigh grant frames.
	l := &link{c: c, br: bufio.NewReaderSize(c, 512), frameTimeout: coordHelloTimeout, blobTimeout: max(s.cfg.Heartbeat, 2*time.Second)}
	var nonce []byte
	if s.cfg.Key != "" {
		nonce = make([]byte, coordNonceLen)
		if _, err := rand.Read(nonce); err != nil || l.send(func(b []byte) []byte { return appendChallengeFrame(b, nonce) }) != nil {
			return
		}
	}
	p, _, err := l.readMsg(coordHelloTimeout)
	if err != nil {
		return
	}
	name, ok, mismatch := s.coord.admit(p, s.cfg.Key, nonce)
	if mismatch {
		s.authFailures.Add(1)
	}
	if !ok {
		return
	}
	l.frameTimeout = s.cfg.Heartbeat
	s.mu.Lock()
	if old := s.conns.bind(name, l); old != nil {
		old.c.Close()
	}
	s.mu.Unlock()

	// Everything after the hello is paced by the worker's bins, so no
	// deadline applies to the report stream.
	for {
		p, blob, err := l.readMsg(0)
		if err != nil {
			break
		}
		s.coord.serve(name, p, blob, time.Now())
	}

	s.mu.Lock()
	s.conns.unbind(name, l)
	s.mu.Unlock()
}

func (s *CoordServer) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		s.coord.tick(time.Now(), s.cfg.Lease, s.cfg.Grace)
		s.mu.Lock()
		bound := maps.Clone(s.conns)
		s.mu.Unlock()
		for name, l := range bound {
			s.coord.pump(name, l.send) // a link superseded meanwhile fails the send
		}
	}
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
// reconnect (the rejoin path), and feeding pushed frames to its
// workerLink — so Report and Grant never block on the network beyond a
// single bounded write.
type CoordClient struct {
	addr string

	mu   sync.Mutex
	w    workerLink // guarded by mu, but for the redial schedule
	link *link      // nil while disconnected

	quit       chan struct{}
	wg         sync.WaitGroup
	closed     atomic.Bool
	reconnects atomic.Int64

	// Pushed adoption offers queue here for the host process.
	adoptCh chan AdoptOffer
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
		addr: addr, w: newWorkerLink(name, cfg), quit: make(chan struct{}),
		// The coordinator collects one offer per adopter per heartbeat; 8
		// rides out a host slow to start the shards it was offered.
		adoptCh: make(chan AdoptOffer, 8),
	}
	err := c.connect()
	c.wg.Add(1)
	go c.maintain()
	return c, err
}

// Connected reports whether a coordinator connection is currently up.
func (c *CoordClient) Connected() bool { return c.current() != nil }

// Reconnects returns how many times the background loop re-established
// the connection after a loss (or an initially unreachable coordinator).
func (c *CoordClient) Reconnects() int64 { return c.reconnects.Load() }

func (c *CoordClient) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, coordDialTimeout)
	if err != nil {
		return err
	}
	l := &link{c: conn, br: bufio.NewReaderSize(conn, 512), frameTimeout: coordDialTimeout, blobTimeout: ckptRecvTimeout}
	var nonce []byte
	if c.w.cfg.Key != "" {
		// A keyed client expects the challenge before anything else.
		var b challengeBody
		p, _, err := l.readMsg(coordDialTimeout)
		if _, ok := decodeFrame(p, &b); err == nil && (!ok || p[0] != coordMsgChallenge) {
			err = errors.New("unexpected frame where challenge expected")
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("control: coordinator auth: %w (keyless coordinator or wrong address?)", err)
		}
		nonce = b.Nonce[:]
	}
	// name and cfg never change, so the hello reads them unlocked.
	if err := l.send(func(b []byte) []byte { return c.w.hello(b, nonce) }); err != nil {
		return err
	}
	c.w.joined()
	c.mu.Lock()
	c.link = l
	c.mu.Unlock()
	return nil
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
	}
	c.mu.Unlock()
}

func (c *CoordClient) maintain() {
	defer c.wg.Done()
	for !c.closed.Load() {
		l := c.current()
		if l == nil {
			// The redial schedule is this loop's alone (connect's first
			// call precedes it), so it needs no lock.
			at := c.w.redialAt(time.Now())
			select {
			case <-c.quit:
				return
			case <-time.After(time.Until(at)):
			}
			if c.connect() == nil {
				c.reconnects.Add(1)
			}
			continue
		}
		c.readPushes(l) // blocks until the connection dies
		c.drop(l)
	}
}

// readPushes feeds the coordinator's pushes on l to the workerLink and
// queues the adoption offers among them for the host.
func (c *CoordClient) readPushes(l *link) {
	for {
		p, blob, err := l.readMsg(0)
		if err != nil {
			return
		}
		c.mu.Lock()
		o, ok := c.w.frame(p, blob, time.Now())
		c.mu.Unlock()
		if ok {
			select {
			case c.adoptCh <- o:
			default:
				// Queue full: drop; the coordinator re-offers after its
				// offer timeout, and likely elsewhere.
			}
		}
	}
}

// send writes one message on the current link. While disconnected it
// returns ErrCoordinatorUnreachable; a failed write closes the
// connection and the maintain loop redials and re-joins.
func (c *CoordClient) send(build func(buf []byte) []byte) error {
	l := c.current()
	if l == nil {
		return ErrCoordinatorUnreachable
	}
	return l.send(build)
}

// Report sends a demand report; while disconnected it returns
// ErrCoordinatorUnreachable and the caller proceeds on local capacity.
func (c *CoordClient) Report(r DemandReport) error {
	return c.send(func(buf []byte) []byte { return appendReportFrame(buf, r) })
}

// Checkpoint ships an encoded shard checkpoint to the coordinator: the
// header frame and the blob in one write. While disconnected it returns
// ErrCoordinatorUnreachable — checkpointing is advisory and the next
// boundary retries.
func (c *CoordClient) Checkpoint(blob []byte, bin int64, final bool) error {
	if len(blob) > maxCheckpointBytes {
		return fmt.Errorf("control: checkpoint blob %d bytes exceeds the %d wire cap", len(blob), maxCheckpointBytes)
	}
	return c.send(func(buf []byte) []byte {
		return append(appendCheckpointFrame(buf, bin, final, len(blob)), blob...)
	})
}

// DrainRequested reports whether the coordinator pushed a drain frame
// on this link (it latches; the worker process is expected to act once
// and exit the shard).
func (c *CoordClient) DrainRequested() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.drainReq
}

// Adoptions delivers the adoption offers pushed on this link, each once.
// Adopting means building a new engine next to the existing one, which
// is the hosting process's job (cmd/lsd's adoption loop), not the
// transport's.
func (c *CoordClient) Adoptions() <-chan AdoptOffer { return c.adoptCh }

// Grant returns the latest pushed grant while it is lease-fresh; while
// it is not, the worker is degraded to local-only shedding.
func (c *CoordClient) Grant() (BudgetGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.fresh(time.Now())
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
