package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// TestMetricsReportUDPReceiveBuffer: a UDP listener asks the kernel for
// a receive buffer that holds a burst, and /metrics must say what it
// got — the only way an operator can tell a clamped request
// (net.core.rmem_max) from a granted one. Unixgram is flow-controlled
// and has no such gauge.
func TestMetricsReportUDPReceiveBuffer(t *testing.T) {
	gauge := regexp.MustCompile(`(?m)^lsd_ingest_rcvbuf_bytes (\d+)$`)
	scrape := func(network, addr string) string {
		live, err := loadshed.ListenLive(network, addr, loadshed.LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		sys := loadshed.New(loadshed.Config{Seed: 1}, loadshed.StandardQueries(loadshed.QueryConfig{Seed: 1}))
		mux := adminMux(sys, loadshed.NewRollingStats(10), live, 1, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	udp := scrape("udp", "127.0.0.1:0")
	// The same scrape carries the rest of the ingest and runtime
	// families; the kernel's drop counter exists for UDP only, and only
	// where /proc/net/udp does.
	for _, name := range []string{
		"lsd_ingest_dropped_packets_total", "lsd_ingest_pool_buffers", "lsd_ingest_pool_bytes",
		"go_gc_cycles_total", "go_gc_cpu_fraction", "go_heap_inuse_bytes", "go_goroutines",
	} {
		if !regexp.MustCompile(`(?m)^` + name + ` [0-9.e+-]+$`).MatchString(udp) {
			t.Errorf("no %s sample in /metrics", name)
		}
	}
	if _, err := os.Stat("/proc/net/udp"); err == nil && !strings.Contains(udp, "\nlsd_ingest_kernel_drops_total 0\n") {
		t.Error("no lsd_ingest_kernel_drops_total 0 on an idle UDP listener")
	}
	m := gauge.FindStringSubmatch(udp)
	if m == nil {
		t.Fatal("no lsd_ingest_rcvbuf_bytes gauge on a UDP listener")
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("lsd_ingest_rcvbuf_bytes = %s, want the granted size", m[1])
	}
	unix := scrape("unixgram", t.TempDir()+"/in.sock")
	if gauge.MatchString(unix) || strings.Contains(unix, "lsd_ingest_kernel_drops_total") {
		t.Fatal("unixgram listener reports a UDP receive buffer or kernel drops")
	}
}

// TestPacedSourceHoldsTraceTime: a paced source delivers its first
// batch at once and every later one no earlier than its trace time
// after the first, so it never runs ahead by more than a batch per
// TimeBin; a Reset re-anchors at the next delivery; and stop unblocks a
// wait for a batch far in the future.
func TestPacedSourceHoldsTraceTime(t *testing.T) {
	const bin = 20 * time.Millisecond
	batches := make([]pkt.Batch, 6)
	for i := range batches {
		batches[i] = pkt.Batch{Start: time.Duration(i+3) * bin, Bin: bin} // a resumed source starts late
	}
	src, _ := pace(trace.NewMemorySource(batches, bin))
	for pass := range 2 {
		start := time.Now()
		for i := range batches {
			b, ok := src.NextBatch()
			if !ok {
				t.Fatalf("pass %d: source ended at batch %d", pass, i)
			}
			if got, due := time.Since(start), b.Start-batches[0].Start; got < due {
				t.Fatalf("pass %d: batch %d delivered %v after the first, due at %v", pass, i, got, due)
			}
		}
		if _, ok := src.NextBatch(); ok {
			t.Fatalf("pass %d: delivered past the end", pass)
		}
		src.Reset()
	}

	far := []pkt.Batch{{Start: 0, Bin: bin}, {Start: time.Hour, Bin: bin}}
	src, stop := pace(trace.NewMemorySource(far, bin))
	src.NextBatch()
	done := make(chan bool)
	go func() {
		_, ok := src.NextBatch()
		done <- ok
	}()
	stop()
	stop() // idempotent
	select {
	case ok := <-done:
		if ok {
			t.Fatal("a stopped source delivered the batch it was waiting for")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not unblock a paced wait")
	}
	if _, ok := src.NextBatch(); ok {
		t.Fatal("a stopped source delivered a batch")
	}
}

// TestAdminPlaneLimits: the admin plane bounds what a client can make
// it hold. A POST /queries body past maxQueryBody gets 413 whether it
// is JSON or a form, while a small one still registers; and a request
// header that never ends is cut off — one that keeps growing at
// adminMaxHeaderBytes with 431, one that stalls at adminHeaderTimeout
// by closing the connection.
func TestAdminPlaneLimits(t *testing.T) {
	t.Parallel()
	sys := loadshed.New(loadshed.Config{Seed: 1}, loadshed.StandardQueries(loadshed.QueryConfig{Seed: 1}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := adminServer(adminMux(sys, loadshed.NewRollingStats(10), nil, 1, nil))
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/queries"

	pad := strings.Repeat("x", maxQueryBody)
	for _, tc := range []struct{ contentType, body string }{
		{"application/json", `{"kind": "autofocus", "pad": "` + pad + `"}`},
		{"application/x-www-form-urlencoded", "kind=autofocus&pad=" + pad},
	} {
		resp, err := http.Post(url, tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body of %d bytes answered %d, want 413", tc.contentType, len(tc.body), resp.StatusCode)
		}
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"kind": "autofocus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("a small registration answered %d, want 202", resp.StatusCode)
	}

	// A header that keeps growing: the server answers 431 and hangs up
	// while the client is still writing.
	grow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer grow.Close()
	go func() {
		io.WriteString(grow, "GET /healthz HTTP/1.1\r\nHost: lsd\r\nX-Pad: ")
		chunk := strings.Repeat("a", 1024)
		for i := 0; i < 64*adminMaxHeaderBytes/len(chunk); i++ {
			if _, err := io.WriteString(grow, chunk); err != nil {
				return
			}
		}
	}()
	grow.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(grow).ReadString('\n')
	if err != nil || !strings.Contains(status, "431") {
		t.Fatalf("an endless header got status line %q (%v), want 431", status, err)
	}

	// A header that stalls: the server closes the connection once the
	// header timeout passes, without waiting for the rest.
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: lsd\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(start.Add(adminHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("a stalled header was not cut off: %v after %v", err, time.Since(start))
	}
	if waited := time.Since(start); waited < adminHeaderTimeout-time.Second {
		t.Fatalf("a stalled header was cut off after %v, before the %v header timeout", waited, adminHeaderTimeout)
	}
}
