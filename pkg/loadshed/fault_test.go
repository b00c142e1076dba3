package loadshed

// fault_test.go pins the coordination layer's failure contract under
// the seeded fault injector (fault.go): the fault schedule is
// reproducible, and the coordinator's lease liveness partitions a
// report-lossy node and rejoins it the moment reports flow again. That
// a node behind a fully grant-lossy link fails open to an uncoordinated
// run, bit for bit, is TestConformance's grant-loss row.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestFaultTransportDeterministicSchedule(t *testing.T) {
	const n = 400
	cfg := FaultConfig{Seed: 5, ReportDrop: 0.2, ReportDelay: 0.2, ReportDup: 0.1, GrantDrop: 0.3}
	run := func() ([]DemandReport, int, FaultStats) {
		inner := &captureTransport{capacity: 100}
		ft := NewFaultTransport(inner, cfg)
		grants := 0
		for i := 0; i < n; i++ {
			ft.Report(DemandReport{Node: "w", Bin: int64(i), Demand: float64(i)})
			if _, ok := ft.Grant(); ok {
				grants++
			}
		}
		return inner.reports, grants, ft.Stats()
	}

	rep1, grants1, st1 := run()
	rep2, grants2, st2 := run()
	if !reflect.DeepEqual(rep1, rep2) || grants1 != grants2 || st1 != st2 {
		t.Fatal("same seed produced different fault schedules")
	}

	if st1.ReportsDropped == 0 || st1.ReportsDelayed == 0 || st1.ReportsDuplicated == 0 || st1.GrantsDropped == 0 {
		t.Fatalf("fault mix did not exercise every fate: %+v", st1)
	}
	// Conservation: every report fed in is dropped, still held back, or
	// delivered — with duplicates delivered twice.
	held := int64(n) - int64(len(rep1)) - st1.ReportsDropped + st1.ReportsDuplicated
	if held < 0 || held > st1.ReportsDelayed {
		t.Fatalf("report conservation broken: %d delivered, stats %+v", len(rep1), st1)
	}
	// Delayed reports arrive out of order but intact: every delivered
	// bin appears at most 1+dup times and at most MaxDelay calls after
	// its own. The feeding call is identifiable because Bin tracks it:
	// an in-order delivery pins the current call, and nothing may trail
	// it by more than the delay bound.
	maxDelay := int64(FaultConfig{}.withDefaults().MaxDelay)
	seen := map[int64]int{}
	call := int64(0)
	for _, r := range rep1 {
		seen[r.Bin]++
		if r.Bin > call {
			call = r.Bin
		}
		if r.Bin < call-maxDelay {
			t.Fatalf("bin %d delivered during call %d, outside the delay bound", r.Bin, call)
		}
	}
	for bin, k := range seen {
		if k > 2 {
			t.Fatalf("bin %d delivered %d times, want at most 2 (one duplicate)", bin, k)
		}
	}
	if grants1 >= n || grants1 == 0 {
		t.Fatalf("grant drop at 0.3 passed %d/%d grants", grants1, n)
	}
}

// TestCoordinatorLeaseLivenessUnderReportLoss scripts a loss episode on
// the report path of one of two loopback nodes: while reports flow the
// node holds its share; under total report loss the lease expires, the
// coordinator marks it partitioned and hands its budget to the
// survivor; when the link heals, the first delivered report rejoins it.
func TestCoordinatorLeaseLivenessUnderReportLoss(t *testing.T) {
	const total = 1000.0
	const lease = 50 * time.Millisecond
	coord := NewCoordinator(sched.MMFSCPU{}, total)
	alpha := NewLoopback(coord, "alpha", 0)
	beta := NewFaultTransport(NewLoopback(coord, "beta", 0), FaultConfig{Seed: 3})

	status := func(name string) CoordNodeStatus {
		for _, n := range coord.Status() {
			if n.Name == name {
				return n
			}
		}
		t.Fatalf("node %q not in status", name)
		return CoordNodeStatus{}
	}
	round := func(binIdx int64) {
		alpha.Report(DemandReport{Node: "alpha", Bin: binIdx, Demand: 600})
		beta.Report(DemandReport{Node: "beta", Bin: binIdx, Demand: 600})
		coord.AllocateLease(lease)
	}

	// Phase 1: lossless. Both nodes hold grants splitting the budget.
	round(1)
	ga, aok := alpha.Grant()
	gb, bok := beta.Grant()
	if !aok || !bok {
		t.Fatal("phase 1: both nodes should hold grants")
	}
	if sum := ga.Capacity + gb.Capacity; math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("phase 1: grants sum to %v, want %v", sum, total)
	}

	// Phase 2: beta's report path goes fully lossy. Once its lease
	// expires the coordinator partitions it, the survivor absorbs the
	// whole budget, and beta observes no fresh grant — it fails open on
	// its local capacity rather than stalling.
	beta.SetConfig(FaultConfig{Seed: 3, ReportDrop: 1})
	time.Sleep(lease + 20*time.Millisecond)
	round(2)
	if !status("beta").Partitioned {
		t.Fatal("phase 2: beta not partitioned after silent lease")
	}
	if ga, ok := alpha.Grant(); !ok || math.Abs(ga.Capacity-total) > 1e-6*total {
		t.Fatalf("phase 2: survivor holds %v of %v", ga.Capacity, total)
	}
	if _, ok := beta.Grant(); ok {
		t.Fatal("phase 2: partitioned node still observes a fresh grant")
	}
	if st := beta.Stats(); st.ReportsDropped == 0 {
		t.Fatalf("phase 2: no reports dropped: %+v", st)
	}

	// Phase 3: the link heals; the first delivered report clears the
	// partition and the next round splits the budget again.
	beta.SetConfig(FaultConfig{Seed: 3})
	round(3)
	if status("beta").Partitioned {
		t.Fatal("phase 3: beta still partitioned after reporting again")
	}
	ga, aok = alpha.Grant()
	gb, bok = beta.Grant()
	if !aok || !bok || ga.Capacity >= total || gb.Capacity <= 0 {
		t.Fatalf("phase 3: rejoin grants alpha=%v beta=%v", ga.Capacity, gb.Capacity)
	}
}
