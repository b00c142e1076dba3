package main

import (
	"net/http/httptest"
	"regexp"
	"strconv"
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

	m := gauge.FindStringSubmatch(scrape("udp", "127.0.0.1:0"))
	if m == nil {
		t.Fatal("no lsd_ingest_rcvbuf_bytes gauge on a UDP listener")
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("lsd_ingest_rcvbuf_bytes = %s, want the granted size", m[1])
	}
	if gauge.MatchString(scrape("unixgram", t.TempDir()+"/in.sock")) {
		t.Fatal("unixgram listener reports a UDP receive buffer")
	}
}
