package control

// link_test.go pins what the one mailbox and the one link are for: an
// adoption offer's blob belongs to its receiver, and a peer that lies
// about a blob or stalls inside one costs a connection — not memory,
// and not the reader's stream.

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestOfferBlobNotAliased keeps one shard on offer to a live adopter
// over TCP while its checkpoint is re-stored in a loop. Run under -race
// (CI does): the coordinator rewrites a retained blob in place, so an
// offer that aliased it would be read by the heartbeat's push while
// storeCheckpoint writes it. Every blob the adopter receives must also
// be one checkpoint's bytes, not a mix of two.
func TestOfferBlobNotAliased(t *testing.T) {
	coord := NewCoordinator(sched.MMFSCPU{}, 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeCoordinator(ln, coord, CoordServerConfig{
		Heartbeat: time.Millisecond,
		Lease:     20 * time.Millisecond, // offers re-issue every 2×Lease
		Grace:     time.Millisecond,
	})
	defer srv.Close()
	adopter, err := DialCoordinator(srv.Addr().String(), "a", CoordClientConfig{Lease: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer adopter.Close()

	// s reported once, an hour ago, and a lease round then partitioned
	// it: it is offered to the adopter from the first heartbeat on.
	coord.storeCheckpoint("s", 0, false, make([]byte, 4096))
	ago := time.Now().Add(-time.Hour)
	coord.report(DemandReport{Node: "s", Demand: 100}, ago)
	coord.tick(ago.Add(time.Second), 20*time.Millisecond, time.Millisecond)

	deadline := time.Now().Add(10 * time.Second)
	for i, offers := 1, 0; offers < 3; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d offers delivered in 10 s, want 3", offers)
		}
		adopter.Report(DemandReport{Bin: int64(i), Demand: 100}) // stays live
		coord.storeCheckpoint("s", int64(i), false, bytes.Repeat([]byte{byte(i)}, 4096))
		select {
		case o := <-adopter.Adoptions():
			offers++
			if n := bytes.Count(o.Checkpoint, o.Checkpoint[:1]); n != len(o.Checkpoint) {
				t.Fatalf("offer %d carries a torn blob: %d of %d bytes match the first", offers, n, len(o.Checkpoint))
			}
		default:
		}
	}
}

// stallingCoordinator accepts workers, reads each hello and answers
// with push; it then neither reads nor writes again. With hangUp it
// closes the first connection after the push and stops listening.
func stallingCoordinator(t *testing.T, push []byte, hangUp bool) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			if _, err := readCoordFrame(c, nil); err != nil {
				continue
			}
			c.Write(push)
			if hangUp {
				c.Close()
				ln.Close()
				return
			}
		}
	}()
	return ln.Addr()
}

// TestAdoptBlobReadHasDeadline: a coordinator that stalls mid-blob must
// cost the worker that connection only. The reader gives up after
// ckptRecvTimeout and the client redials; without a deadline on the
// worker's side the read — and with it the grant stream — wedges for as
// long as the peer keeps the socket open.
func TestAdoptBlobReadHasDeadline(t *testing.T) {
	defer func(d time.Duration) { ckptRecvTimeout = d }(ckptRecvTimeout)
	ckptRecvTimeout = 50 * time.Millisecond

	push := append(appendAdoptFrame(nil, "s", 7, 1<<20), make([]byte, 16)...)
	c, err := DialCoordinator(stallingCoordinator(t, push, false).String(), "w", CoordClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() // runs before ckptRecvTimeout is restored: no reader is left to see it move
	waitFor(t, 5*time.Second, "the worker to abandon the stalled blob and redial", func() bool {
		return c.Reconnects() >= 1
	})
}

// TestBlobReadGrowsWithBytes: an adopt header may claim up to
// maxCheckpointBytes; the claim alone must not be what gets allocated.
// A peer that announces 64 MiB and hangs up costs the reader what
// arrived — nothing — not the announced size.
func TestBlobReadGrowsWithBytes(t *testing.T) {
	addr := stallingCoordinator(t, appendAdoptFrame(nil, "s", 7, maxCheckpointBytes), true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := DialCoordinator(addr.String(), "w", CoordClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	waitFor(t, 5*time.Second, "the worker to notice the hang-up", func() bool { return !c.Connected() })
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d MiB claim followed by EOF allocated %d KiB; the blob buffer must grow with the bytes that arrive",
			maxCheckpointBytes>>20, grew>>10)
	}
}
