package trace

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pkt"
)

// TestLiveFrameRoundTrip pins the wire framing: appendFrame's encoding
// decodes to the identical packet, payload included.
func TestLiveFrameRoundTrip(t *testing.T) {
	cfg := shortCfg(3)
	cfg.Payload = true
	batches := Record(NewGenerator(cfg))
	l := &LiveSource{}
	var buf []byte
	var want []pkt.Packet
	for i := range batches {
		for j := range batches[i].Pkts {
			buf = appendFrame(buf, &batches[i].Pkts[j])
			want = append(want, batches[i].Pkts[j])
		}
	}
	got := l.decodeFrames(buf, nil)
	if l.BadFrames() != 0 {
		t.Fatalf("%d bad frames decoding a clean encoding", l.BadFrames())
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d packets, encoded %d", len(got), len(want))
	}
	for i := range want {
		if pktKey(&got[i]) != pktKey(&want[i]) {
			t.Fatalf("packet %d mismatch:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// pktKey is a comparable fingerprint of every encoded field.
func pktKey(p *pkt.Packet) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d/%x",
		p.Ts, p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto, p.TCPFlags, p.Size, p.Payload)
}

// drainLive reads batches until n packets arrived or the deadline
// passes, then closes the source and drains the tail of the stream.
func drainLive(t *testing.T, l *LiveSource, n int, deadline time.Duration) []pkt.Packet {
	t.Helper()
	var got []pkt.Packet
	timeout := time.After(deadline)
	for len(got) < n {
		done := make(chan pkt.Batch, 1)
		go func() {
			b, ok := l.NextBatch()
			if !ok {
				close(done)
				return
			}
			done <- b
		}()
		select {
		case b, ok := <-done:
			if !ok {
				t.Fatal("stream ended early")
			}
			got = append(got, b.Pkts...)
		case <-timeout:
			l.Close()
			t.Fatalf("timed out with %d/%d packets", len(got), n)
		}
	}
	l.Close()
	for {
		b, ok := l.NextBatch()
		if !ok {
			break
		}
		got = append(got, b.Pkts...)
	}
	return got
}

// TestLiveUnixgramEndToEnd sends a generated trace over a unixgram
// socket — reliable, so delivery is exact — and requires the listener
// to reproduce every packet, batched by wall clock and Ts-sorted
// within each bin.
func TestLiveUnixgramEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.sock")
	l, err := ListenLive("unixgram", path, LiveConfig{Bin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(7)
	cfg.Duration = time.Second
	cfg.Payload = true
	batches := Record(NewGenerator(cfg))
	snd, err := DialLive("unixgram", path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	sent := 0
	for i := range batches {
		if err := snd.SendBatch(&batches[i]); err != nil {
			t.Fatal(err)
		}
		for j := range batches[i].Pkts {
			want[pktKey(&batches[i].Pkts[j])]++
			sent++
		}
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}

	got := drainLive(t, l, sent, 10*time.Second)
	if l.Err() != nil {
		t.Fatalf("listener error: %v", l.Err())
	}
	if l.BadFrames() != 0 {
		t.Fatalf("%d bad frames on a clean sender", l.BadFrames())
	}
	if len(got) != sent {
		t.Fatalf("received %d packets, sent %d", len(got), sent)
	}
	for i := range got {
		k := pktKey(&got[i])
		if want[k] == 0 {
			t.Fatalf("received packet never sent: %+v", got[i])
		}
		want[k]--
	}
}

// TestLiveUDPDelivers exercises the UDP path. UDP may drop under
// pressure even on loopback, so the assertions are loss-tolerant: some
// packets arrive intact, none are mangled, nothing is invented.
func TestLiveUDPDelivers(t *testing.T) {
	l, err := ListenLive("udp", "127.0.0.1:0", LiveConfig{Bin: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	batches := Record(NewGenerator(shortCfg(9)))
	snd, err := DialLive("udp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	sent := 0
	for i := range batches {
		if err := snd.SendBatch(&batches[i]); err != nil {
			t.Fatal(err)
		}
		for j := range batches[i].Pkts {
			want[pktKey(&batches[i].Pkts[j])]++
			sent++
		}
	}
	snd.Close()

	// Give the kernel a moment to deliver, then take what arrived.
	time.Sleep(100 * time.Millisecond)
	l.Close()
	var got []pkt.Packet
	for {
		b, ok := l.NextBatch()
		if !ok {
			break
		}
		got = append(got, b.Pkts...)
	}
	if l.BadFrames() != 0 {
		t.Fatalf("%d bad frames on a clean sender", l.BadFrames())
	}
	if len(got) == 0 {
		t.Fatal("no packets arrived over loopback UDP")
	}
	if len(got) > sent {
		t.Fatalf("received %d packets, only sent %d", len(got), sent)
	}
	for i := range got {
		k := pktKey(&got[i])
		if want[k] == 0 {
			t.Fatalf("received packet never sent: %+v", got[i])
		}
		want[k]--
	}
}

// TestLiveBadFramesCounted feeds garbage datagrams and requires them to
// be rejected and counted, not delivered as packets.
func TestLiveBadFramesCounted(t *testing.T) {
	l, err := ListenLive("udp", "127.0.0.1:0", LiveConfig{Bin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("udp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame length prefix smaller than any record, then noise.
	if _, err := conn.Write([]byte{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	// A plausible prefix whose record is truncated.
	if _, err := conn.Write([]byte{40, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.BadFrames() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("bad frames not counted: %d", l.BadFrames())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing decodable arrived, so the next bins must be empty.
	b, ok := l.NextBatch()
	if ok && len(b.Pkts) != 0 {
		t.Fatalf("garbage decoded into %d packets", len(b.Pkts))
	}
}

// TestLiveCloseUnblocksNextBatch pins the cancellation contract the
// serving mode relies on: Close wakes a NextBatch waiting on a silent
// link, and the stream ends without error.
func TestLiveCloseUnblocksNextBatch(t *testing.T) {
	l, err := ListenLive("udp", "127.0.0.1:0", LiveConfig{Bin: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := l.NextBatch()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("NextBatch returned a batch from a closed silent listener")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextBatch still blocked after Close")
	}
	if l.Err() != nil {
		t.Fatalf("clean Close left error: %v", l.Err())
	}
}

// TestLiveCloseConcurrentWaitsForUnlink: cmd/lsd closes its ingest from
// a signal callback and from the main goroutine at once, then exits.
// Whichever Close returns first, the listener must be fully down — the
// unixgram socket file already unlinked — or the process leaves it
// behind.
func TestLiveCloseConcurrentWaitsForUnlink(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		path := filepath.Join(dir, fmt.Sprintf("close%d.sock", i))
		l, err := ListenLive("unixgram", path, LiveConfig{Bin: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		stat := make(chan error, 2)
		for k := 0; k < 2; k++ {
			go func() {
				l.Close()
				_, err := os.Stat(path)
				stat <- err
			}()
		}
		for k := 0; k < 2; k++ {
			if err := <-stat; !os.IsNotExist(err) {
				t.Fatalf("iteration %d: a Close returned with the socket file still present (stat: %v)", i, err)
			}
		}
	}
}

// TestLiveKernelDrops pins the /proc/net/udp parse (inode is the tenth
// column, drops the last) and that a real UDP listener finds its own
// row there; a unixgram listener, whose sender blocks instead, has none.
func TestLiveKernelDrops(t *testing.T) {
	const table = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  563: 0100007F:4A96 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 7301 2 0000000000000000 0
 1410: 00000000:14E9 00000000:0000 07 00000000:00000300 00:00000000 00000000  1000        0 7302 2 0000000000000000 4211
`
	if d, ok := udpDrops(strings.NewReader(table), 7302); !ok || d != 4211 {
		t.Fatalf("udpDrops(inode 7302) = %d, %v; want 4211", d, ok)
	}
	if d, ok := udpDrops(strings.NewReader(table), 2); ok {
		t.Fatalf("udpDrops matched inode 2 (a ref count) and returned %d", d)
	}

	u, err := ListenLive("unixgram", filepath.Join(t.TempDir(), "k.sock"), LiveConfig{Bin: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if _, ok := u.KernelDrops(); ok {
		t.Fatal("a unixgram listener reported kernel drops")
	}
	if _, err := os.Stat("/proc/net/udp"); err != nil {
		t.Skip("no /proc/net/udp here")
	}
	l, err := ListenLive("udp", "127.0.0.1:0", LiveConfig{Bin: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if d, ok := l.KernelDrops(); !ok || d != 0 {
		t.Fatalf("KernelDrops on an idle UDP listener = %d, %v", d, ok)
	}
}
