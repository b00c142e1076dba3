package control

// failover_test.go pins the coordinator's failover and lease state
// machines on a scripted clock: adoption offers wait out the grace
// window, rotate across adopters and settle once; a planned migration
// offers the final checkpoint to its target at once; a node whose
// reports are lost is partitioned past its lease and rejoins with its
// first delivered report.

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/sched"
)

// offeredTo reads who the named shard is currently offered to off the
// coordinator's status plane ("" = no offer outstanding).
func offeredTo(t *testing.T, coord *Coordinator, shard string) string {
	t.Helper()
	for _, n := range coord.Status() {
		if n.Name == shard {
			return n.OfferedTo
		}
	}
	t.Fatalf("no status row for shard %q", shard)
	return ""
}

// TestAdoptOfferRotationAndRace drives the lease and planFailover on a
// synthetic clock: no offer inside the grace window, one offer past it,
// re-offer suppression while in flight, deterministic rotation to the
// next live candidate after expiry, deliver-once mailbox semantics, and
// settlement when a worker dials in under the shard's name.
func TestAdoptOfferRotationAndRace(t *testing.T) {
	const (
		lease = 50 * time.Millisecond
		grace = 100 * time.Millisecond
		ot    = 200 * time.Millisecond
	)
	t0 := time.Now()
	coord := NewCoordinator(sched.MMFSCPU{}, 1000)
	for _, n := range []string{"s", "a", "b"} {
		coord.join(n, 0)
		coord.report(DemandReport{Node: n, Bin: 1, Demand: 100}, t0.Add(-2*lease))
	}
	coord.storeCheckpoint("s", 5, false, []byte("blob"))
	// s falls silent while a and b report on: the lease round at t0
	// partitions s as of t0.
	for _, n := range []string{"a", "b"} {
		coord.report(DemandReport{Node: n, Bin: 2, Demand: 100}, t0)
	}
	coord.allocateLease(t0, lease)

	coord.planFailover(t0.Add(grace/2), grace, ot)
	if to := offeredTo(t, coord, "s"); to != "" {
		t.Fatalf("offer inside the grace window, to %q", to)
	}
	coord.planFailover(t0.Add(grace), grace, ot)
	if to := offeredTo(t, coord, "s"); to != "a" || coord.FailoverOffers() != 1 {
		t.Fatalf("first offer to %q (%d issued), want shard s to adopter a, once", to, coord.FailoverOffers())
	}
	if _, ok := coord.takeOfferFor("b"); ok {
		t.Fatal("offer addressed to a collected by b")
	}
	o, ok := coord.takeOfferFor("a")
	if !ok || o.Shard != "s" || o.Bin != 5 || !bytes.Equal(o.Checkpoint, []byte("blob")) {
		t.Fatalf("a collects %+v (ok=%v), want shard s at bin 5 carrying the blob", o, ok)
	}
	issued := t0.Add(grace)
	coord.planFailover(issued.Add(ot/2), grace, ot)
	if to := offeredTo(t, coord, "s"); to != "a" || coord.FailoverOffers() != 1 {
		t.Fatalf("re-offer while one is in flight: to %q, %d issued", to, coord.FailoverOffers())
	}
	coord.planFailover(issued.Add(ot), grace, ot)
	if to := offeredTo(t, coord, "s"); to != "b" {
		t.Fatalf("expired offer re-issued to %q, want rotation to b", to)
	}
	if got := coord.FailoverOffers(); got != 2 {
		t.Fatalf("offer counter %d, want 2", got)
	}

	// Delivery is at-most-once per issued offer, unless the transport
	// puts an undeliverable one back.
	if _, ok := coord.takeOfferFor("b"); !ok {
		t.Fatal("adopter b sees no offer")
	}
	if _, ok := coord.takeOfferFor("b"); ok {
		t.Fatal("offer delivered twice")
	}
	coord.untakeOffer("s", "a") // stale: the offer has moved on to b
	if _, ok := coord.takeOfferFor("b"); ok {
		t.Fatal("a stale put-back from the previous adopter re-opened b's offer")
	}
	coord.untakeOffer("s", "b")
	if _, ok := coord.takeOfferFor("b"); !ok {
		t.Fatal("offer put back after a failed push is not collectable again")
	}

	// The adopter dials in under the shard's name: the offer settles and
	// the shard is live again — no further offers.
	coord.join("s", 0)
	coord.report(DemandReport{Node: "s", Bin: 6, Demand: 100}, issued.Add(10*ot))
	coord.planFailover(issued.Add(10*ot), grace, ot)
	if to := offeredTo(t, coord, "s"); to != "" || coord.FailoverOffers() != 2 {
		t.Fatalf("settled shard re-offered to %q (%d issued)", to, coord.FailoverOffers())
	}
}

// TestMigrateDirectedOffer pins the planned-migration state machine:
// Migrate validates its endpoints, raises the drain flag the transport
// relays, and once the final checkpoint lands the shard is offered to
// the directed target immediately — no grace window, no rotation.
func TestMigrateDirectedOffer(t *testing.T) {
	coord := NewCoordinator(sched.MMFSCPU{}, 1000)
	for _, n := range []string{"s", "a", "b"} {
		coord.join(n, 0)
		coord.report(DemandReport{Node: n, Bin: 1, Demand: 100}, time.Now())
	}
	coord.join("ghost", 0) // joined but never reported: not live

	if err := coord.Migrate("nope", "a"); err == nil {
		t.Fatal("migrate from an unknown shard")
	}
	if err := coord.Migrate("s", "nope"); err == nil {
		t.Fatal("migrate to an unknown target")
	}
	if err := coord.Migrate("s", "s"); err == nil {
		t.Fatal("migrate onto itself")
	}
	if err := coord.Migrate("s", "ghost"); err == nil {
		t.Fatal("migrate to a never-live target")
	}
	if err := coord.Migrate("s", "b"); err != nil {
		t.Fatalf("migrate s -> b: %v", err)
	}
	draining := func() (names []string) {
		for _, n := range []string{"s", "a", "b", "ghost"} {
			if coord.drainRequested(n) {
				names = append(names, n)
			}
		}
		return names
	}
	if d := draining(); len(d) != 1 || d[0] != "s" {
		t.Fatalf("drain requested of %v, want [s]", d)
	}

	// A non-final checkpoint (a periodic one racing the drain) does not
	// trigger the directed offer; the final one does, instantly.
	coord.storeCheckpoint("s", 7, false, []byte("periodic"))
	now := time.Now()
	coord.planFailover(now, time.Hour, time.Hour)
	if to := offeredTo(t, coord, "s"); to != "" {
		t.Fatalf("offer to %q before the final checkpoint", to)
	}
	coord.storeCheckpoint("s", 8, true, []byte("final"))
	if d := draining(); len(d) != 0 {
		t.Fatalf("drain still pending after the final checkpoint: %v", d)
	}
	coord.planFailover(now, time.Hour, time.Hour)
	if _, ok := coord.takeOfferFor("a"); ok {
		t.Fatal("directed offer collected by a node other than the target")
	}
	o, ok := coord.takeOfferFor("b")
	if !ok || o.Shard != "s" || o.Bin != 8 || coord.FailoverOffers() != 1 {
		t.Fatalf("directed offer %+v (ok=%v, %d issued), want shard s to b at bin 8, once", o, ok, coord.FailoverOffers())
	}
	if !bytes.Equal(o.Checkpoint, []byte("final")) {
		t.Fatalf("directed offer carries %q, want the final blob", o.Checkpoint)
	}

	// Target resumes under the shard's name: migration complete.
	coord.join("s", 0)
	coord.report(DemandReport{Node: "s", Bin: 9, Demand: 100}, now)
	coord.planFailover(now.Add(time.Hour), time.Hour, time.Minute)
	if to := offeredTo(t, coord, "s"); to != "" || coord.FailoverOffers() != 1 {
		t.Fatalf("completed migration re-offered to %q (%d issued)", to, coord.FailoverOffers())
	}
}

// clockedLoopback is a loopback transport whose reports reach the
// coordinator stamped with a scripted clock, *now, instead of the wall
// clock, so a test moves the lease by assignment rather than by sleep.
// While *lost is set its reports vanish on the way, counted in dropped.
type clockedLoopback struct {
	NodeTransport
	coord   *Coordinator
	now     *time.Time
	lost    *bool
	dropped *int
}

func (t clockedLoopback) Report(r DemandReport) error {
	if t.lost != nil && *t.lost {
		*t.dropped++
		return nil
	}
	t.coord.report(r, *t.now)
	return nil
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
	now := time.Now()
	var lost bool
	var dropped int
	alpha := clockedLoopback{NodeTransport: NewLoopback(coord, "alpha", 0), coord: coord, now: &now}
	beta := clockedLoopback{NodeTransport: NewLoopback(coord, "beta", 0), coord: coord, now: &now, lost: &lost, dropped: &dropped}

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
		coord.allocateLease(now, lease)
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
	lost = true
	now = now.Add(lease + 20*time.Millisecond)
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
	if dropped == 0 {
		t.Fatal("phase 2: no reports dropped")
	}

	// Phase 3: the link heals; the first delivered report clears the
	// partition and the next round splits the budget again.
	lost = false
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
