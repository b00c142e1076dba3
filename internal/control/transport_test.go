package control

// transport_test.go pins the frame codec both ends of the TCP link and
// the state directory share, and the client's reconnect schedule.

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/hash"
)

// TestCoordWireRoundTrip pins the TCP frame format: hello, report (with
// and without the done flag) and grant survive an encode/decode round
// trip, and truncated payloads are rejected rather than misparsed. The
// spill header, which heads state-directory files instead of crossing
// the wire, round-trips the same way and is told apart from the
// checkpoint header it shares a body with.
func TestCoordWireRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendHelloFrame(buf, "uplink-7", 0.25)
	buf = appendReportFrame(buf, DemandReport{Bin: 42, Demand: 1.5e6})
	buf = appendReportFrame(buf, DemandReport{Bin: 43, Done: true})
	buf = appendGrantFrame(buf, BudgetGrant{Round: 9, Capacity: 7.25e6})
	buf = appendSpillFrame(buf, "a/b", 12, true, 4096)

	br := bufio.NewReader(bytes.NewReader(buf))
	p, err := readCoordFrame(br, nil)
	if err != nil {
		t.Fatalf("read hello frame: %v", err)
	}
	name, minShare, ok := decodeHello(p)
	if !ok || name != "uplink-7" || minShare != 0.25 {
		t.Fatalf("hello decoded as (%q, %v, %v)", name, minShare, ok)
	}
	p, err = readCoordFrame(br, p)
	if err != nil {
		t.Fatalf("read report frame: %v", err)
	}
	r, ok := decodeReport(p)
	if !ok || r.Bin != 42 || r.Demand != 1.5e6 || r.Done {
		t.Fatalf("report decoded as %+v (%v)", r, ok)
	}
	p, err = readCoordFrame(br, p)
	if err != nil {
		t.Fatalf("read done-report frame: %v", err)
	}
	if r, ok = decodeReport(p); !ok || !r.Done || r.Bin != 43 {
		t.Fatalf("done report decoded as %+v (%v)", r, ok)
	}
	p, err = readCoordFrame(br, p)
	if err != nil {
		t.Fatalf("read grant frame: %v", err)
	}
	g, ok := decodeGrant(p)
	if !ok || g.Round != 9 || g.Capacity != 7.25e6 {
		t.Fatalf("grant decoded as %+v (%v)", g, ok)
	}
	p, err = readCoordFrame(br, p)
	if err != nil {
		t.Fatalf("read spill frame: %v", err)
	}
	shard, bin, final, blobLen, ok := decodeSpillHdr(p)
	if !ok || shard != "a/b" || bin != 12 || !final || blobLen != 4096 {
		t.Fatalf("spill header decoded as (%q, %d, %v, %d, %v)", shard, bin, final, blobLen, ok)
	}

	if _, _, ok := decodeHello([]byte{coordMsgHello, 5, 'a'}); ok {
		t.Fatal("truncated hello decoded")
	}
	if _, ok := decodeReport([]byte{coordMsgReport, 1, 2, 3}); ok {
		t.Fatal("truncated report decoded")
	}
	if _, ok := decodeGrant([]byte{coordMsgGrant}); ok {
		t.Fatal("truncated grant decoded")
	}
	if _, _, _, _, ok := decodeSpillHdr(nil); ok {
		t.Fatal("empty spill header decoded")
	}
	// A named frame whose body is a checkpoint header's is a spill
	// header only under its own type byte.
	adopt := appendAdoptFrame(nil, "a/b", 4096)[2:]
	if _, _, _, _, ok := decodeSpillHdr(adopt); ok {
		t.Fatal("an adopt header decoded as a spill header")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReconnectJitterDeterministic pins the reconnect backoff contract:
// the jitter stream is seeded from the worker name, so a given worker
// waits the same schedule every run (reproducibility) while different
// workers desynchronize (no thundering herd), and every wait stays
// inside [d/2, d).
func TestReconnectJitterDeterministic(t *testing.T) {
	if fnv64a("alpha") == fnv64a("beta") {
		t.Fatal("distinct names hash alike")
	}
	if fnv64a("alpha") != fnv64a("alpha") {
		t.Fatal("name hash is unstable")
	}
	const d = 800 * time.Millisecond
	seq := func(name string) []time.Duration {
		rng := hash.NewXorShift(fnv64a(name))
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = backoffJitter(rng, d)
		}
		return out
	}
	a1, a2, b := seq("alpha"), seq("alpha"), seq("beta")
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same name, different jitter schedule")
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different names, identical jitter schedule")
	}
	for i, w := range a1 {
		if w < d/2 || w >= d {
			t.Fatalf("wait %d = %v outside [%v, %v)", i, w, d/2, d)
		}
	}
	// Degenerate durations pass through unjittered.
	rng := hash.NewXorShift(1)
	if got := backoffJitter(rng, 1); got != 1 {
		t.Fatalf("sub-divisible duration jittered to %v", got)
	}
}
