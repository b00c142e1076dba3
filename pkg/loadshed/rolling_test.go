package loadshed

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// synthBin builds a BinStats with enough fields set for RollingStats:
// traffic counters proportional to v, a global rate, and per-query
// rates (one per element of rates).
func synthBin(v int, global float64, rates ...float64) *BinStats {
	return &BinStats{
		WirePkts:   10 * v,
		DropPkts:   v,
		AdmitPkts:  9 * v,
		Used:       float64(100 * v),
		Overhead:   float64(10 * v),
		Shed:       float64(v),
		Capacity:   1000,
		GlobalRate: global,
		BufferBins: float64(v),
		Rates:      rates,
	}
}

// TestRollingPartialWindow pins Snapshot on a window that has not
// filled yet: windowed means cover exactly the bins seen, not the
// configured window, and lifetime counters match them.
func TestRollingPartialWindow(t *testing.T) {
	r := NewRollingStats(10)
	r.OnQuery(0, "a")
	for v := 1; v <= 4; v++ {
		r.OnBin(synthBin(v, 0.5, 0.25))
	}
	s := r.Snapshot()
	if s.WindowBins != 4 {
		t.Fatalf("WindowBins = %d, want 4", s.WindowBins)
	}
	if s.Bins != 4 {
		t.Fatalf("Bins = %d, want 4", s.Bins)
	}
	// 1+2+3+4 = 10 units: wire 100 pkts over 4 bins.
	if s.PktsPerBin != 25 {
		t.Fatalf("PktsPerBin = %v, want 25", s.PktsPerBin)
	}
	if s.WirePkts != 100 || s.DropPkts != 10 || s.AdmitPkts != 90 {
		t.Fatalf("lifetime counters %d/%d/%d, want 100/10/90", s.WirePkts, s.DropPkts, s.AdmitPkts)
	}
	if s.DropFrac != 0.1 {
		t.Fatalf("DropFrac = %v, want 0.1", s.DropFrac)
	}
	if s.MeanGlobalRate != 0.5 {
		t.Fatalf("MeanGlobalRate = %v, want 0.5", s.MeanGlobalRate)
	}
	if len(s.MeanRates) != 1 || s.MeanRates[0] != 0.25 {
		t.Fatalf("MeanRates = %v, want [0.25]", s.MeanRates)
	}
	if s.MaxDelay != 4 {
		t.Fatalf("MaxDelay = %v, want 4", s.MaxDelay)
	}
	// (used+overhead+shed)/capacity averaged: sum over v of 111v/1000 / 4.
	wantUtil := 111.0 * 10 / 1000 / 4
	if math.Abs(s.MeanUtil-wantUtil) > 1e-12 {
		t.Fatalf("MeanUtil = %v, want %v", s.MeanUtil, wantUtil)
	}
}

// TestRollingWrapAround pins the ring after more bins than the window:
// windowed means cover only the last window bins while lifetime
// counters keep the whole history.
func TestRollingWrapAround(t *testing.T) {
	r := NewRollingStats(4)
	r.OnQuery(0, "a")
	for v := 1; v <= 10; v++ {
		r.OnBin(synthBin(v, float64(v)/10, float64(v)/100))
	}
	s := r.Snapshot()
	if s.WindowBins != 4 || s.Bins != 10 {
		t.Fatalf("WindowBins/Bins = %d/%d, want 4/10", s.WindowBins, s.Bins)
	}
	// Window holds v = 7..10: 34 units, wire 340 over 4 bins.
	if s.PktsPerBin != 85 {
		t.Fatalf("PktsPerBin = %v, want 85 (last 4 bins only)", s.PktsPerBin)
	}
	// Lifetime: sum v = 55 units.
	if s.WirePkts != 550 || s.DropPkts != 55 {
		t.Fatalf("lifetime wire/drop = %d/%d, want 550/55", s.WirePkts, s.DropPkts)
	}
	if want := (0.7 + 0.8 + 0.9 + 1.0) / 4; math.Abs(s.MeanGlobalRate-want) > 1e-12 {
		t.Fatalf("MeanGlobalRate = %v, want %v", s.MeanGlobalRate, want)
	}
	if want := (0.07 + 0.08 + 0.09 + 0.10) / 4; math.Abs(s.MeanRates[0]-want) > 1e-12 {
		t.Fatalf("MeanRates[0] = %v, want %v", s.MeanRates[0], want)
	}
	if s.MaxDelay != 10 {
		t.Fatalf("MaxDelay = %v, want 10", s.MaxDelay)
	}
}

// TestRollingRatesAcrossArrival pins per-query aggregation when a query
// joins mid-stream (an interval-boundary Arrival or AddQuery): its mean
// rate averages only the bins it existed, earlier queries average all
// their bins, and indices stay aligned.
func TestRollingRatesAcrossArrival(t *testing.T) {
	r := NewRollingStats(8)
	r.OnQuery(0, "old")
	for i := 0; i < 4; i++ {
		r.OnBin(synthBin(1, 1, 0.4))
	}
	// Interval boundary: a second query joins; bins now carry two rates.
	r.OnQuery(1, "new")
	for i := 0; i < 2; i++ {
		r.OnBin(synthBin(1, 1, 0.4, 0.8))
	}
	s := r.Snapshot()
	if len(s.Queries) != 2 || s.Queries[0] != "old" || s.Queries[1] != "new" {
		t.Fatalf("Queries = %v", s.Queries)
	}
	if len(s.MeanRates) != 2 {
		t.Fatalf("MeanRates has %d entries, want 2", len(s.MeanRates))
	}
	if math.Abs(s.MeanRates[0]-0.4) > 1e-12 {
		t.Fatalf("old query mean rate = %v, want 0.4 over all 6 bins", s.MeanRates[0])
	}
	if math.Abs(s.MeanRates[1]-0.8) > 1e-12 {
		t.Fatalf("new query mean rate = %v, want 0.8 over its 2 bins", s.MeanRates[1])
	}
	if len(s.Active) != 2 || !s.Active[0] || !s.Active[1] {
		t.Fatalf("Active = %v, want both true", s.Active)
	}
}

// TestWritePrometheus pins the exposition format the admin plane
// serves: every advertised metric name appears with HELP/TYPE lines,
// per-query series carry the query label, and label values escape
// quotes and backslashes.
func TestWritePrometheus(t *testing.T) {
	r := NewRollingStats(4)
	r.OnQuery(0, "flows")
	r.OnQuery(1, `we"ird\name`)
	r.OnBin(synthBin(2, 0.5, 0.25, 0.75))
	r.OnInterval(&IntervalResults{})
	r.OnQueryRemove(1, `we"ird\name`)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lsd_bins_total 1",
		"lsd_intervals_total 1",
		"lsd_wire_packets_total 20",
		"lsd_drop_packets_total 2",
		"lsd_admit_packets_total 18",
		"lsd_export_cycles_total",
		"lsd_window_bins 1",
		"lsd_window_packets_per_bin 20",
		"lsd_window_drop_fraction 0.1",
		"lsd_window_unsampled_fraction",
		"lsd_window_mean_global_rate 0.5",
		"lsd_window_mean_delay_bins 2",
		"lsd_window_max_delay_bins 2",
		"lsd_window_mean_used_cycles 200",
		"lsd_window_mean_overhead_cycles 20",
		"lsd_window_mean_shed_cycles 2",
		"lsd_window_budget_utilization",
		`lsd_query_rate{query="flows"} 0.25`,
		`lsd_query_active{query="flows"} 1`,
		`lsd_query_rate{query="we\"ird\\name"} 0.75`,
		`lsd_query_active{query="we\"ird\\name"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lsd_") {
			name := line[:strings.IndexAny(line, "{ ")]
			if !strings.Contains(out, "# HELP "+name+" ") || !strings.Contains(out, "# TYPE "+name+" ") {
				t.Errorf("metric %s lacks HELP/TYPE lines", name)
			}
		}
	}
}

// TestRollingStatsConcurrentSnapshot is the serving deployment's shape:
// one stream writes the sink — queries joining and retiring, bins,
// intervals — while admin-plane goroutines snapshot it. Run under -race
// it proves the internal lock covers every field; the consistency check
// proves a snapshot never sees half a bin.
func TestRollingStatsConcurrentSnapshot(t *testing.T) {
	r := NewRollingStats(16)
	r.OnQuery(0, "a")
	// Before the first bin the per-query slices are already aligned with
	// Queries: GET /queries on a monitor whose link is still silent used
	// to index a nil MeanRates.
	if s := r.Snapshot(); len(s.MeanRates) != 1 || s.MeanRates[0] != 0 {
		t.Fatalf("snapshot before the first bin: MeanRates = %v, want [0]", s.MeanRates)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				s := r.Snapshot()
				if s.WirePkts != s.AdmitPkts+s.DropPkts || len(s.MeanRates) != len(s.Queries) || len(s.Active) != len(s.Queries) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for v := 1; v <= 2000; v++ {
		switch v {
		case 500:
			r.OnQuery(1, "b")
		case 1500:
			r.OnQueryRemove(0, "a")
		}
		if v < 500 {
			r.OnBin(synthBin(v, 0.5, 0.25))
		} else {
			r.OnBin(synthBin(v, 0.5, 0.25, 0.75))
		}
		if v%10 == 0 {
			r.OnInterval(&IntervalResults{ExportCycles: 1})
		}
	}
	close(done)
	readers.Wait()
	if s := r.Snapshot(); s.Bins != 2000 || s.Intervals != 200 {
		t.Fatalf("final snapshot: %d bins, %d intervals", s.Bins, s.Intervals)
	}
}
