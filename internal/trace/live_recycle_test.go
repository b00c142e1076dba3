package trace

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/pkt"
)

// seqPacket is packet number seq of a synthetic stream in which every
// field, and every payload byte, is a function of seq — so a receiver
// can tell from a packet alone whether its bytes are still the ones sent.
func seqPacket(seq int) pkt.Packet {
	p := seqHeader(seq)
	if n := seq % (pkt.SnapLen + 1); n > 0 {
		p.Payload = make([]byte, n)
		for j := range p.Payload {
			p.Payload[j] = seqByte(seq, j)
		}
	}
	return p
}

func seqHeader(seq int) pkt.Packet {
	return pkt.Packet{
		Ts: int64(seq), SrcIP: uint32(seq) * 2654435761, DstIP: uint32(seq) ^ 0x5bd1e995,
		SrcPort: uint16(seq), DstPort: uint16(seq >> 3), Proto: pkt.ProtoTCP, TCPFlags: uint8(seq), Size: 40 + seq%1400,
	}
}

func seqByte(seq, j int) byte { return byte(seq*31 + j*7) }

// sameAsSent reports whether p is still seqPacket(p.Ts), without
// allocating (the soak calls it for every packet, twice).
func sameAsSent(p *pkt.Packet) bool {
	seq := int(p.Ts)
	w := seqHeader(seq)
	if p.SrcIP != w.SrcIP || p.DstIP != w.DstIP || p.SrcPort != w.SrcPort || p.DstPort != w.DstPort ||
		p.Proto != w.Proto || p.TCPFlags != w.TCPFlags || p.Size != w.Size || len(p.Payload) != seq%(pkt.SnapLen+1) {
		return false
	}
	for j, c := range p.Payload {
		if c != seqByte(seq, j) {
			return false
		}
	}
	return true
}

// TestLiveRecycleSoak is the ownership rule under the race detector: a
// consumer that lags by a varying 0–180 ms per 100 ms bin and recycles
// every batch — odd bins at once, even bins only after the following bin
// has been recycled and its storage refilled — must receive exactly the
// packets sent, in order, and find every held payload still carrying the
// bytes that were sent.
func TestLiveRecycleSoak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.sock")
	l, err := ListenLive("unixgram", path, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snd, err := DialLive("unixgram", path)
	if err != nil {
		t.Fatal(err)
	}

	const perBurst, bursts = 400, 200 // one burst every 10 ms for 2 s
	const total = perBurst * bursts
	sendErr := make(chan error, 1)
	go func() {
		b := pkt.Batch{Pkts: make([]pkt.Packet, perBurst)}
		for i := 0; i < bursts; i++ {
			for j := range b.Pkts {
				b.Pkts[j] = seqPacket(i*perBurst + j)
			}
			if err := snd.SendBatch(&b); err != nil {
				sendErr <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		sendErr <- snd.Close()
	}()

	next := 0
	check := func(b pkt.Batch, first bool) {
		for i := range b.Pkts {
			p := &b.Pkts[i]
			if first {
				if int(p.Ts) != next {
					t.Fatalf("packet %d arrived where %d was due", p.Ts, next)
				}
				next++
			}
			if !sameAsSent(p) {
				t.Fatalf("packet %d no longer holds what was sent (first look: %v): %+v", p.Ts, first, *p)
			}
		}
	}
	var held *pkt.Batch
	deadline := time.Now().Add(30 * time.Second)
	for bin := 0; next < total; bin++ {
		b, ok := l.NextBatch()
		if !ok || time.Now().After(deadline) {
			t.Fatalf("received %d of %d packets (stream open: %v, dropped bins %d, bad frames %d)", next, total, ok, l.DroppedBins(), l.BadFrames())
		}
		check(b, true)
		time.Sleep(time.Duration(bin*7%10) * 20 * time.Millisecond)
		if bin%2 == 0 {
			held = &b
			continue
		}
		l.Recycle(b)
		check(*held, false)
		l.Recycle(*held)
		held = nil
	}
	if held != nil {
		check(*held, false)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if l.DroppedPackets() != 0 || l.BadFrames() != 0 {
		t.Fatalf("dropped packets %d, bad frames %d", l.DroppedPackets(), l.BadFrames())
	}
}

// TestLivePayloadAppendStaysInFrame: a decoded payload aliases the
// datagram, so its capacity must end where it does — a consumer
// appending to one (against the read-only contract, but cheaply made
// harmless) gets a copy instead of the next frame's header.
func TestLivePayloadAppendStaysInFrame(t *testing.T) {
	a, b := seqPacket(100), seqPacket(200)
	data := appendFrame(appendFrame(nil, &a), &b)
	l := &LiveSource{}
	got := l.decodeFrames(data, nil)
	if len(got) != 2 || l.BadFrames() != 0 {
		t.Fatalf("decoded %d packets, %d bad frames", len(got), l.BadFrames())
	}
	if c := cap(got[0].Payload); c != len(got[0].Payload) {
		t.Fatalf("payload has cap %d, len %d", c, len(got[0].Payload))
	}
	_ = append(got[0].Payload, 0xff, 0xff, 0xff, 0xff)
	if !sameAsSent(&got[1]) {
		t.Fatalf("appending to packet 0's payload changed packet 1: %+v", got[1])
	}
	again := l.decodeFrames(data, nil)
	if !sameAsSent(&again[1]) {
		t.Fatal("appending to packet 0's payload wrote into the datagram")
	}
}

// TestLiveRecycleAllocGate: once warm, a recycling consumer costs the
// listener at most two heap allocations per delivered bin — the packet
// slice, the arena and the datagram reads are all reused.
func TestLiveRecycleAllocGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gate.sock")
	l, err := ListenLive("unixgram", path, LiveConfig{Bin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snd, err := DialLive("unixgram", path)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	burst := pkt.Batch{Pkts: make([]pkt.Packet, 2000)}
	for j := range burst.Pkts {
		burst.Pkts[j] = seqPacket(j)
	}
	// One burst per bin taken, sent and consumed on this goroutine so the
	// only other allocator in the process is the listener.
	bins, pkts := 0, 0
	turn := func() {
		if err := snd.SendBatch(&burst); err != nil {
			t.Fatal(err)
		}
		b, ok := l.NextBatch()
		if !ok {
			t.Fatal("stream ended")
		}
		bins++
		pkts += len(b.Pkts)
		l.Recycle(b)
	}
	for i := 0; i < 20; i++ {
		turn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bins, pkts = 0, 0
	for i := 0; i < 50; i++ {
		turn()
	}
	runtime.ReadMemStats(&after)
	if pkts < 40*len(burst.Pkts) {
		t.Fatalf("only %d packets in %d bins: the gate measured idle bins", pkts, bins)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(bins); per > 2 {
		t.Fatalf("%.1f heap allocations per delivered bin (%d over %d bins), want <= 2", per, after.Mallocs-before.Mallocs, bins)
	}
}

// TestLivePoolDropsOversizedBuffers: a buffer that grew for a burst is
// pooled while bins of that size are recent and dropped once they are
// not, so one burst does not pin its memory for the life of the process.
func TestLivePoolDropsOversizedBuffers(t *testing.T) {
	var p bufPool
	fill := func(n int) *binBuf {
		b := p.get()
		for i := 0; i < n; i += 100 {
			b.off += len(b.tail())
			b.pkts = append(b.pkts, make([]pkt.Packet, 100)...)
		}
		return b
	}
	big := fill(40000)
	p.lend(big)
	p.recycle(big.pkts)
	if len(p.free) != 1 {
		t.Fatal("a buffer the size of the latest bin was not pooled")
	}
	big = p.get()
	// The burst passes: small bins until the decaying maxima forget it.
	for i := 0; i < 100; i++ {
		b := fill(400)
		p.lend(b)
		p.recycle(b.pkts)
	}
	free := len(p.free)
	big.pkts = big.pkts[:400]
	p.lend(big)
	p.recycle(big.pkts)
	if len(p.free) != free {
		t.Fatalf("a %d-packet, %d-chunk buffer was pooled when recent bins hold 400 packets", cap(big.pkts), len(big.chunks))
	}
	// A batch that was never lent, or is recycled twice, is ignored.
	p.recycle(make([]pkt.Packet, 10))
	p.recycle(big.pkts)
	p.recycle(nil)
	if len(p.free) != free {
		t.Fatal("a foreign or repeated Recycle reached the free list")
	}
}
