package main

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

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
