package loadshed

// failover_test.go pins the crash-tolerance layer with real engine
// checkpoints: an adopter receives the blob a worker shipped, the state
// directory spills and reloads it without the coordinator decoding it,
// and the PSK auth handshake rejects key mismatches while counting
// them. The offer and migration state machines are internal/control's
// own tests. That migration, periodic checkpoints and CheckpointEvery=0
// leave a run bit-identical is TestConformance's migrate,
// migrate-chained, checkpoint-periodic and checkpoint-off rows, which
// drive the transport and legacy blob defined here.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/control"
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
// grant when capacity is positive (and none, counting the asks, when it
// is not), and raises the drain signal once the node has reported past
// drainAfterBin — the deterministic stand-in for a coordinator-relayed
// drain frame.
type captureTransport struct {
	mu            sync.Mutex
	capacity      float64
	drainAfterBin int64 // >0: drain once a report reaches this bin
	lastBin       int64
	reports       []DemandReport
	blobs         [][]byte
	refused       int // Grant calls answered with no grant
}

func (t *captureTransport) Report(r DemandReport) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reports = append(t.reports, r)
	t.lastBin = max(t.lastBin, r.Bin)
	return nil
}

func (t *captureTransport) Grant() (control.BudgetGrant, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity <= 0 {
		t.refused++
	}
	return control.BudgetGrant{Round: 1, Capacity: t.capacity}, t.capacity > 0
}

func (t *captureTransport) Checkpoint(blob []byte, bin int64, final bool) error {
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

// lastCheckpoint passes every call through to its transport and keeps
// the last checkpoint blob that went through it.
type lastCheckpoint struct {
	NodeTransport
	blob []byte
}

func (t *lastCheckpoint) Checkpoint(blob []byte, bin int64, final bool) error {
	t.blob = blob
	return t.NodeTransport.Checkpoint(blob, bin, final)
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
	srv := serveTCP(t, coord, CoordServerConfig{Heartbeat: 10 * time.Millisecond, Lease: 60 * time.Millisecond, Grace: 50 * time.Millisecond})
	ccfg := CoordClientConfig{Lease: 60 * time.Millisecond}
	alpha, beta := dialTCP(t, srv, "alpha", ccfg), dialTCP(t, srv, "beta", ccfg)

	// Alpha's shard state: a fresh spec-built system, snapshotted at the
	// between-runs quiesce point.
	cp := testCheckpoint(t, "alpha", 0)

	alpha.Report(DemandReport{Node: "alpha", Bin: 1, Demand: 400})
	beta.Report(DemandReport{Node: "beta", Bin: 1, Demand: 400})
	blob, err := cp.EncodeBytes()
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	if err := alpha.Checkpoint(blob, cp.Bin, cp.Final); err != nil {
		t.Fatalf("ship checkpoint: %v", err)
	}
	waitFor(t, 5*time.Second, "checkpoint retained", func() bool {
		return coord.CheckpointsStored() >= 1
	})

	// Alpha dies. Beta keeps reporting (it must stay live to adopt) and
	// polls for the offer the coordinator pushes after lease + grace.
	alpha.Close()
	var offer control.AdoptOffer
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
	srv := serveTCP(t, coord, CoordServerConfig{Heartbeat: 10 * time.Millisecond, Lease: 60 * time.Millisecond, Key: "sesame"})
	good := dialTCP(t, srv, "good", CoordClientConfig{Lease: 60 * time.Millisecond, Key: "sesame"})
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
	open := serveTCP(t, NewCoordinator(MMFSCPU(), 1000), CoordServerConfig{Heartbeat: 10 * time.Millisecond})
	c, err := DialCoordinator(open.Addr().String(), "keyed", CoordClientConfig{Key: "sesame"})
	if err == nil {
		t.Fatal("keyed dial of a keyless coordinator succeeded")
	}
	if c != nil {
		c.Close()
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

// checkpointBins reads each shard's retained checkpoint bin off the
// coordinator's status plane (-1 = none held).
func checkpointBins(c *control.Coordinator) map[string]int64 {
	bins := map[string]int64{}
	for _, n := range c.Status() {
		bins[n.Name] = n.CheckpointBin
	}
	return bins
}

// TestStateDirSpillReload pins coordinator-restart durability: a
// retained checkpoint spills to the state directory, a fresh
// coordinator reloads it as a partitioned-pending shard, and an adopter
// is offered the reloaded blob bit for bit — an engine checkpoint that
// still decodes to the shard and bin it was spilled under, though the
// coordinator never decoded it.
func TestStateDirSpillReload(t *testing.T) {
	dir := t.TempDir()
	blob := testCheckpointBlob(t, "shard-1", 12)

	first := NewCoordinator(MMFSCPU(), 1000)
	if err := first.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("state dir: %v", err)
	}
	if err := NewLoopback(first, "shard-1", 0).Checkpoint(blob, 12, false); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	second := NewCoordinator(MMFSCPU(), 1000)
	if err := second.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	st := second.Status()
	if len(st) != 1 || st[0].Name != "shard-1" || !st[0].Partitioned || st[0].CheckpointBin != 12 {
		t.Fatalf("reloaded shard status %+v, want a partitioned shard-1 holding bin 12", st)
	}

	// With a live adopter present the reloaded shard is offered once the
	// grace window passes.
	srv := serveTCP(t, second, CoordServerConfig{Heartbeat: 10 * time.Millisecond, Lease: time.Second, Grace: time.Millisecond})
	helper := dialTCP(t, srv, "helper", CoordClientConfig{Lease: time.Second})
	var offer control.AdoptOffer
	waitFor(t, 5*time.Second, "reloaded shard offered to the helper", func() bool {
		helper.Report(DemandReport{Bin: 1, Demand: 10})
		select {
		case offer = <-helper.Adoptions():
			return true
		default:
			return false
		}
	})
	if offer.Shard != "shard-1" || offer.Bin != 12 || !bytes.Equal(offer.Checkpoint, blob) {
		t.Fatalf("helper offered shard %q at bin %d, %d bytes; want the reloaded blob of shard-1 at bin 12 (%d bytes)",
			offer.Shard, offer.Bin, len(offer.Checkpoint), len(blob))
	}
	if cp := decodeCheckpoint(t, offer.Checkpoint); cp.Node != "shard-1" || cp.Bin != 12 {
		t.Fatalf("offered blob decodes to {node %q, bin %d}, want {shard-1, 12}", cp.Node, cp.Bin)
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
		bin := int64(10 + i)
		if err := NewLoopback(first, name, 0).Checkpoint(testCheckpointBlob(t, name, bin), bin, false); err != nil {
			t.Fatalf("checkpoint %q: %v", name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != len(names) {
		t.Fatalf("spilled %v (err %v), want %d files", files, err, len(names))
	}

	second := NewCoordinator(MMFSCPU(), 1000)
	if err := second.SetStateDir(dir, time.Now()); err != nil {
		t.Fatalf("reload: %v", err)
	}
	bins := checkpointBins(second)
	for i, name := range names {
		if bin, ok := bins[name]; !ok || bin != int64(10+i) {
			t.Errorf("shard %q reloaded ok=%v bin=%d, want bin %d", name, ok, bin, 10+i)
		}
	}
}

// TestStateDirReloadsOldStyleFileNames: files written under the earlier
// lossy naming ("x/y" -> x_y.ckpt) still reload, because the spill
// header names the shard; once the shard has spilled under its new name
// too, the later bin wins whichever file the directory lists last. A
// bare checkpoint blob, the file builds before the spill header wrote,
// is reported by SetStateDir and skipped while the rest still reloads.
func TestStateDirReloadsOldStyleFileNames(t *testing.T) {
	dir := t.TempDir()
	reload := func() (*control.Coordinator, error) {
		c := NewCoordinator(MMFSCPU(), 1000)
		return c, c.SetStateDir(dir, time.Now())
	}
	c, err := reload()
	if err != nil {
		t.Fatalf("state dir: %v", err)
	}
	if err := NewLoopback(c, "x/y", 0).Checkpoint(testCheckpointBlob(t, "x/y", 5), 5, false); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := os.Rename(filepath.Join(dir, "x%2Fy.ckpt"), filepath.Join(dir, "x_y.ckpt")); err != nil {
		t.Fatal(err)
	}
	if c, err = reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if bin := checkpointBins(c)["x/y"]; bin != 5 {
		t.Fatalf("old-style file reloaded at bin %d, want bin 5", bin)
	}
	// Spills as x%2Fy.ckpt, which the directory lists first.
	if err := NewLoopback(c, "x/y", 0).Checkpoint(testCheckpointBlob(t, "x/y", 9), 9, false); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if c, err = reload(); err != nil {
		t.Fatalf("second reload: %v", err)
	}
	if bin := checkpointBins(c)["x/y"]; bin != 9 {
		t.Fatalf("stale old-style file shadowed the newer spill: bin %d, want bin 9", bin)
	}

	if err := os.WriteFile(filepath.Join(dir, "old.ckpt"), testCheckpointBlob(t, "old", 3), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = reload()
	if err == nil || !strings.Contains(err.Error(), "old.ckpt") {
		t.Fatalf("a bare checkpoint file reloaded with error %v; want it reported by name", err)
	}
	bins := checkpointBins(c)
	if _, held := bins["old"]; held || bins["x/y"] != 9 {
		t.Fatalf("after a skipped bare checkpoint the coordinator holds %v; want x/y at bin 9 and nothing of old", bins)
	}
}
