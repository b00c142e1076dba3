package main

import (
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
