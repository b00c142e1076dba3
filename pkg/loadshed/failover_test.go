package loadshed

// failover_test.go pins the crash-tolerance layer: failover offers
// must rotate deterministically under loss, the state directory must
// spill and reload, and the PSK auth handshake must reject key
// mismatches while counting them. That migration, periodic checkpoints
// and CheckpointEvery=0 leave a run bit-identical is TestConformance's
// migrate, migrate-chained, checkpoint-periodic and checkpoint-off rows,
// which drive the transport and legacy blob defined here.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hash"
)

// migrationSpec is the spec-constructible shard the failover tests run:
// the same query set as snapshot_test, buildable via QueryByName so an
// adopter can rebuild it from the checkpoint alone.
func migrationSpec(workers int, capacity float64) ShardSpec {
	return ShardSpec{
		Scheme:   "predictive",
		Strategy: "mmfs_pkt",
		Seed:     99,
		Capacity: capacity,
		Workers:  workers,
		Queries: []QuerySpec{
			{Kind: "flows", Seed: 11},
			{Kind: "counter", Seed: 11},
			{Kind: "top-k", Seed: 11},
		},
	}
}

// captureTransport is a NodeTransport that records every report and
// every checkpoint (as its encoded blob), serves a fixed always-fresh
// grant when capacity is positive, and raises the drain signal once the
// node has reported past drainAfterBin — the deterministic stand-in for
// a coordinator-relayed drain frame.
type captureTransport struct {
	mu            sync.Mutex
	capacity      float64
	drainAfterBin int64 // >0: drain once a report reaches this bin
	lastBin       int64
	reports       []DemandReport
	blobs         [][]byte
}

func (t *captureTransport) Report(r DemandReport) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reports = append(t.reports, r)
	t.lastBin = max(t.lastBin, r.Bin)
	return nil
}

func (t *captureTransport) Grant() (BudgetGrant, bool) {
	return BudgetGrant{Round: 1, Capacity: t.capacity}, t.capacity > 0
}

func (t *captureTransport) Checkpoint(cp *ShardCheckpoint) error {
	blob, err := cp.EncodeBytes()
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blobs = append(t.blobs, blob)
	return nil
}

func (t *captureTransport) DrainRequested() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drainAfterBin > 0 && t.lastBin >= t.drainAfterBin
}

func (t *captureTransport) checkpoints() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.blobs...)
}

// legacyCheckpoint re-encodes cp the way the build before ShardSpec
// lost its NoPipeline field wrote it (the structs below are copies of
// that build's, PredictorKind and HistoryLen included, which later
// builds dropped too), and decodes the blob with the current decoder:
// state directories and in-flight offers written by the old build must
// stay readable.
func legacyCheckpoint(t *testing.T, cp *ShardCheckpoint) *ShardCheckpoint {
	t.Helper()
	type legacyShardSpec struct {
		Scheme          string
		Strategy        string
		PredictorKind   string
		Seed            uint64
		Capacity        float64
		Workers         int
		NoPipeline      bool
		HistoryLen      int
		ChangeDetection bool
		Queries         []QuerySpec
		MinShare        float64
		Ingest          string
		Preset          string
		TraceSeed       uint64
		TraceDur        time.Duration
		Scale           float64
	}
	type legacyShardCheckpoint struct {
		Version int
		Node    string
		Bin     int64
		Final   bool
		Spec    legacyShardSpec
		Snap    *SystemSnapshot
	}
	sp := cp.Spec
	old := legacyShardCheckpoint{
		Version: cp.Version, Node: cp.Node, Bin: cp.Bin, Final: cp.Final, Snap: cp.Snap,
		Spec: legacyShardSpec{
			Scheme: sp.Scheme, Strategy: sp.Strategy, PredictorKind: "mlr",
			Seed: sp.Seed, Capacity: sp.Capacity, Workers: sp.Workers, NoPipeline: true,
			HistoryLen: 60, ChangeDetection: sp.ChangeDetection, Queries: sp.Queries,
			MinShare: sp.MinShare, Ingest: sp.Ingest, Preset: sp.Preset,
			TraceSeed: sp.TraceSeed, TraceDur: sp.TraceDur, Scale: sp.Scale,
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatalf("encode legacy checkpoint: %v", err)
	}
	got, err := DecodeShardCheckpoint(&buf)
	if err != nil {
		t.Fatalf("legacy checkpoint (ShardSpec with NoPipeline) no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got.Spec, cp.Spec) {
		t.Fatalf("legacy spec decoded to %+v, want %+v", got.Spec, cp.Spec)
	}
	return got
}

// TestTCPAdoptionFailover runs the crash half of failover over real TCP:
// worker alpha ships a checkpoint and dies; past the lease plus grace
// the coordinator offers alpha's shard to the surviving worker, whose
// client surfaces a decodable adoption offer.
func TestTCPAdoptionFailover(t *testing.T) {
	coord := NewCoordinator(MMFSCPU(), 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeCoordinator(ln, coord, CoordServerConfig{
		Heartbeat: 10 * time.Millisecond,
		Lease:     60 * time.Millisecond,
		Grace:     50 * time.Millisecond,
	})
	defer srv.Close()

	ccfg := CoordClientConfig{Lease: 60 * time.Millisecond}
	alpha, err := DialCoordinator(srv.Addr().String(), "alpha", ccfg)
	if err != nil {
		t.Fatalf("dial alpha: %v", err)
	}
	beta, err := DialCoordinator(srv.Addr().String(), "beta", ccfg)
	if err != nil {
		t.Fatalf("dial beta: %v", err)
	}
	defer beta.Close()

	// Alpha's shard state: a fresh spec-built system, snapshotted at the
	// between-runs quiesce point.
	cp := testCheckpoint(t, "alpha", 0)

	alpha.Report(DemandReport{Node: "alpha", Bin: 1, Demand: 400})
	beta.Report(DemandReport{Node: "beta", Bin: 1, Demand: 400})
	if err := alpha.Checkpoint(cp); err != nil {
		t.Fatalf("ship checkpoint: %v", err)
	}
	waitFor(t, 5*time.Second, "checkpoint retained", func() bool {
		return coord.CheckpointsStored() >= 1
	})

	// Alpha dies. Beta keeps reporting (it must stay live to adopt) and
	// polls for the offer the coordinator pushes after lease + grace.
	alpha.Close()
	var offer AdoptOffer
	waitFor(t, 5*time.Second, "adoption offer delivered to the survivor", func() bool {
		beta.Report(DemandReport{Node: "beta", Bin: 2, Demand: 400})
		select {
		case offer = <-beta.Adoptions():
			return true
		default:
			return false
		}
	})
	if offer.Shard != "alpha" {
		t.Fatalf("offered shard %q, want alpha", offer.Shard)
	}
	got, err := DecodeShardCheckpoint(bytes.NewReader(offer.Checkpoint))
	if err != nil {
		t.Fatalf("offered blob undecodable: %v", err)
	}
	if got.Node != "alpha" || got.Bin != offer.Bin {
		t.Fatalf("offer carries {node %q, bin %d}, frame says bin %d", got.Node, got.Bin, offer.Bin)
	}
	if coord.FailoverOffers() == 0 {
		t.Fatal("offer counter never moved")
	}
}

// TestCoordinatorAuthPSK pins the pre-shared-key handshake: the right
// key joins and is granted, a wrong key and a keyless hello are both
// rejected and counted, and a keyed client against a keyless
// coordinator fails its dial with a diagnosable error.
func TestCoordinatorAuthPSK(t *testing.T) {
	coord := NewCoordinator(MMFSCPU(), 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := ServeCoordinator(ln, coord, CoordServerConfig{
		Heartbeat: 10 * time.Millisecond,
		Lease:     60 * time.Millisecond,
		Key:       "sesame",
	})
	defer srv.Close()

	good, err := DialCoordinator(srv.Addr().String(), "good", CoordClientConfig{
		Lease: 60 * time.Millisecond, Key: "sesame",
	})
	if err != nil {
		t.Fatalf("dial with the right key: %v", err)
	}
	defer good.Close()
	waitFor(t, 5*time.Second, "authenticated worker granted", func() bool {
		good.Report(DemandReport{Node: "good", Bin: 1, Demand: 500})
		_, ok := good.Grant()
		return ok
	})
	if n := srv.AuthFailures(); n != 0 {
		t.Fatalf("%d auth failures before any bad client", n)
	}

	bad, _ := DialCoordinator(srv.Addr().String(), "bad", CoordClientConfig{
		Lease: 60 * time.Millisecond, Key: "wrong",
	})
	waitFor(t, 5*time.Second, "wrong key rejected and counted", func() bool {
		return srv.AuthFailures() >= 1
	})
	bad.Close()

	failsBefore := srv.AuthFailures()
	plain, _ := DialCoordinator(srv.Addr().String(), "plain", CoordClientConfig{Lease: 60 * time.Millisecond})
	waitFor(t, 5*time.Second, "keyless hello to a keyed coordinator rejected", func() bool {
		return srv.AuthFailures() > failsBefore
	})
	plain.Close()

	// The impostors never made it into the membership.
	for _, n := range coord.Status() {
		if n.Name != "good" {
			t.Fatalf("unauthenticated node %q joined the cluster", n.Name)
		}
	}

	// Keyed client, keyless coordinator: the dial must fail up front
	// (no challenge ever arrives) rather than silently downgrade.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	open := ServeCoordinator(ln2, NewCoordinator(MMFSCPU(), 1000), CoordServerConfig{
		Heartbeat: 10 * time.Millisecond,
	})
	defer open.Close()
	c, err := DialCoordinator(open.Addr().String(), "keyed", CoordClientConfig{Key: "sesame"})
	if err == nil {
		t.Fatal("keyed dial of a keyless coordinator succeeded")
	}
	if c != nil {
		c.Close()
	}
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

// TestCheckpointCodecVersioning pins the snapshot/checkpoint codec's
// sentinel discipline: undecodable streams are ErrSnapshotCorrupt,
// decodable streams from unknown format versions are ErrSnapshotVersion,
// and both match through errors.Is after wrapping.
func TestCheckpointCodecVersioning(t *testing.T) {
	if _, err := DecodeSnapshot(bytes.NewReader([]byte("garbage"))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := DecodeShardCheckpoint(bytes.NewReader([]byte("garbage"))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("garbage checkpoint: %v, want ErrSnapshotCorrupt", err)
	}

	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	if _, err := DecodeSnapshot(bytes.NewReader(encode(&SystemSnapshot{Version: 99}))); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future snapshot version: %v, want ErrSnapshotVersion", err)
	}
	future := &ShardCheckpoint{Version: 99, Snap: &SystemSnapshot{Version: SnapshotFormatVersion}}
	if _, err := DecodeShardCheckpoint(bytes.NewReader(encode(future))); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future checkpoint version: %v, want ErrSnapshotVersion", err)
	}
	mixed := &ShardCheckpoint{Version: CheckpointFormatVersion, Snap: &SystemSnapshot{Version: 99}}
	if _, err := DecodeShardCheckpoint(bytes.NewReader(encode(mixed))); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future snapshot inside checkpoint: %v, want ErrSnapshotVersion", err)
	}
	headless := &ShardCheckpoint{Version: CheckpointFormatVersion}
	if _, err := DecodeShardCheckpoint(bytes.NewReader(encode(headless))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("snapshotless checkpoint: %v, want ErrSnapshotCorrupt", err)
	}

	// A real blob survives the round trip; its truncation does not.
	blob := testCheckpointBlob(t, "n", 7)
	cp, err := DecodeShardCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if cp.Version != CheckpointFormatVersion || cp.Snap.Version != SnapshotFormatVersion {
		t.Fatalf("round trip versions %d/%d", cp.Version, cp.Snap.Version)
	}
	if _, err := DecodeShardCheckpoint(bytes.NewReader(blob[:len(blob)/2])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated checkpoint: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestFaultCheckpointLossDeterministic pins the chaos schedule: a given
// fault seed loses the same checkpoints every run (stored plus dropped
// always totals sent), so checkpoint-loss scenarios replay exactly.
func TestFaultCheckpointLossDeterministic(t *testing.T) {
	run := func(seed uint64) (stored, dropped int64) {
		coord := NewCoordinator(MMFSCPU(), 1000)
		ft := NewFaultTransport(NewLoopback(coord, "w", 0), FaultConfig{
			Seed: seed, CheckpointDrop: 0.5,
		})
		cp := testCheckpoint(t, "w", 0)
		for i := 0; i < 40; i++ {
			cp.Bin = int64(i)
			if err := ft.Checkpoint(cp); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		return coord.CheckpointsStored(), ft.Stats().CheckpointsDropped
	}
	s1, d1 := run(7)
	s2, d2 := run(7)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("same seed diverged: stored %d/%d, dropped %d/%d", s1, s2, d1, d2)
	}
	if s1+d1 != 40 {
		t.Fatalf("stored %d + dropped %d != 40 sent", s1, d1)
	}
	if s1 == 0 || d1 == 0 {
		t.Fatalf("degenerate schedule at 50%% loss: stored %d, dropped %d", s1, d1)
	}
	if s3, d3 := run(8); s3 == s1 && d3 == d1 {
		// Not impossible, but at 40 draws it means the schedule ignores
		// the seed; the per-call fates would still differ, counts first.
		t.Logf("seeds 7 and 8 produced identical counts (%d/%d); verify fate streams differ", s3, d3)
	}
}

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
	coord := NewCoordinator(MMFSCPU(), 1000)
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
	coord := NewCoordinator(MMFSCPU(), 1000)
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

// testCheckpoint is a checkpoint of a fresh spec-built system under the
// given shard name and bin.
func testCheckpoint(t *testing.T, name string, bin int64) *ShardCheckpoint {
	t.Helper()
	spec := migrationSpec(1, 100)
	sys, err := spec.NewSystem()
	if err != nil {
		t.Fatalf("spec system: %v", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return &ShardCheckpoint{Node: name, Bin: bin, Spec: spec, Snap: snap}
}

func testCheckpointBlob(t *testing.T, name string, bin int64) []byte {
	t.Helper()
	blob, err := testCheckpoint(t, name, bin).EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestStateDirSpillReload pins coordinator-restart durability: retained
// checkpoints spill to the state directory, a fresh coordinator reloads
// them as partitioned-pending shards, and the reloaded blob is the
// retained one bit for bit.
func TestStateDirSpillReload(t *testing.T) {
	dir := t.TempDir()
	blob := testCheckpointBlob(t, "shard-1", 12)

	first := NewCoordinator(MMFSCPU(), 1000)
	if err := first.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("state dir: %v", err)
	}
	first.storeCheckpoint("shard-1", 12, false, blob)

	second := NewCoordinator(MMFSCPU(), 1000)
	if err := second.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	got, bin, ok := second.checkpoint("shard-1")
	if !ok || bin != 12 || !bytes.Equal(got, blob) {
		t.Fatalf("reloaded checkpoint ok=%v bin=%d, %d bytes vs %d", ok, bin, len(got), len(blob))
	}
	st := second.Status()
	if len(st) != 1 || st[0].Name != "shard-1" || !st[0].Partitioned {
		t.Fatalf("reloaded shard status %+v, want a partitioned shard-1", st)
	}
	// With a live adopter present the reloaded shard becomes offerable
	// once the grace window passes.
	second.join("helper", 0)
	second.report(DemandReport{Node: "helper", Bin: 1, Demand: 10}, time.Now())
	waitFor(t, 5*time.Second, "reloaded shard offered", func() bool {
		second.planFailover(time.Now(), 0, 0)
		return offeredTo(t, second, "shard-1") == "helper"
	})
	if o, ok := second.takeOfferFor("helper"); !ok || o.Bin != 12 || !bytes.Equal(o.Checkpoint, blob) {
		t.Fatalf("helper collects ok=%v bin=%d, %d bytes; want the reloaded blob at bin 12", ok, o.Bin, len(o.Checkpoint))
	}
}

// TestStateDirSpillNamesInjective: shard names that differ only in
// path-hostile bytes spill to distinct files, so neither store destroys
// the other shard's durable state, and both reload.
func TestStateDirSpillNamesInjective(t *testing.T) {
	dir := t.TempDir()
	first := NewCoordinator(MMFSCPU(), 1000)
	if err := first.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("state dir: %v", err)
	}
	names := []string{"a/b", "a_b", "a%2Fb"}
	for i, name := range names {
		first.storeCheckpoint(name, int64(10+i), false, testCheckpointBlob(t, name, int64(10+i)))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != len(names) {
		t.Fatalf("spilled %v (err %v), want %d files", files, err, len(names))
	}

	second := NewCoordinator(MMFSCPU(), 1000)
	if err := second.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	for i, name := range names {
		if _, bin, ok := second.checkpoint(name); !ok || bin != int64(10+i) {
			t.Errorf("shard %q reloaded ok=%v bin=%d, want bin %d", name, ok, bin, 10+i)
		}
	}
}

// TestStateDirReloadsOldStyleFileNames: files written under the earlier
// lossy naming ("x/y" -> x_y.ckpt) still reload, because the blob names
// the shard; once the shard has spilled under its new name too, the
// later bin wins whichever file the directory lists last.
func TestStateDirReloadsOldStyleFileNames(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x_y.ckpt"), testCheckpointBlob(t, "x/y", 5), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(MMFSCPU(), 1000)
	if err := c.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if _, bin, ok := c.checkpoint("x/y"); !ok || bin != 5 {
		t.Fatalf("old-style file reloaded ok=%v bin=%d, want bin 5", ok, bin)
	}
	c.storeCheckpoint("x/y", 9, false, testCheckpointBlob(t, "x/y", 9)) // spills as x%2Fy.ckpt, listed first

	c = NewCoordinator(MMFSCPU(), 1000)
	if err := c.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("second reload: %v", err)
	}
	if _, bin, ok := c.checkpoint("x/y"); !ok || bin != 9 {
		t.Fatalf("stale old-style file shadowed the newer spill: ok=%v bin=%d, want bin 9", ok, bin)
	}
}
