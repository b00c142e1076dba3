package loadshed

// snapshot_test.go pins what Snapshot and Restore refuse. That a
// restored System resumes bit-identically is the snapshot and
// restore-earlier rows of TestConformance.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/queries"
)

// predictorKinds maps each snapshottable predictor kind to the
// Config.Predictor that builds it (nil: the default MLR).
var predictorKinds = map[string]func() predict.Predictor{
	"mlr":  nil,
	"slr":  func() predict.Predictor { return predict.NewSLR(predict.DefaultHistory, features.IdxPackets) },
	"ewma": func() predict.Predictor { return predict.NewEWMA(predict.DefaultEWMAAlpha) },
}

// snapshotTestQueries returns the fresh query set every system in these
// tests runs.
func snapshotTestQueries() []queries.Query {
	return []queries.Query{
		queries.NewFlows(queries.Config{Seed: 11}),
		queries.NewCounter(queries.Config{Seed: 11}),
		queries.NewTopK(queries.Config{Seed: 11}, 0),
	}
}

// encodeDecode round-trips a snapshot through its gob encoding.
func encodeDecode(t *testing.T, snap *SystemSnapshot) *SystemSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return decoded
}

// snapshotErrorSystem is the small predictive system the refusal tests
// snapshot and restore.
func snapshotErrorSystem(pred func() predict.Predictor, qs []queries.Query) *System {
	return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: 1e6, Workers: 1, Predictor: pred}, qs)
}

// detectingSystem is snapshotErrorSystem's default-MLR system with the
// change detector on.
func detectingSystem() *System {
	return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: 1e6, Workers: 1, ChangeDetection: true},
		snapshotTestQueries())
}

// TestSnapshotRestoreErrors pins the refusal paths: snapshots refuse
// queued registry ops, and Restore refuses mismatched query sets and a
// detector present on one side only instead of installing a torn state.
func TestSnapshotRestoreErrors(t *testing.T) {
	mk := func(qs []queries.Query) *System { return snapshotErrorSystem(nil, qs) }

	s := mk(snapshotTestQueries())
	if err := s.AddQuery(queries.NewHighWatermark(queries.Config{Seed: 3})); err != nil {
		t.Fatalf("queue add: %v", err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with queued registry ops must fail")
	}

	donor := mk(snapshotTestQueries())
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	short := mk(snapshotTestQueries()[:2])
	if err := short.Restore(snap); err == nil {
		t.Fatal("restore with a smaller query set must fail")
	}
	reordered := snapshotTestQueries()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := mk(reordered).Restore(snap); err == nil {
		t.Fatal("restore with reordered queries must fail")
	}

	// Change detection is on at both ends or at neither.
	detSnap, err := detectingSystem().Snapshot()
	if err != nil || detSnap.Detect == nil {
		t.Fatalf("snapshot of a detecting system: %v, detector state %v", err, detSnap.Detect)
	}
	if err := mk(snapshotTestQueries()).Restore(detSnap); err == nil {
		t.Fatal("restoring a detector snapshot into a detector-off system must fail")
	}
	if err := detectingSystem().Restore(snap); err == nil {
		t.Fatal("restoring a detector-less snapshot into a detector-on system must fail")
	}
}

// TestRestoreRefusesOtherSeed: the seed keys a system's hash tables and
// flow salt, so a snapshot resumed under another seed runs on, but not
// as the snapshotted system would have. Restore must refuse it, and
// accept the same snapshot under the seed it was taken with.
func TestRestoreRefusesOtherSeed(t *testing.T) {
	withSeed := func(seed uint64) *System {
		return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: seed, Capacity: 1e6, Workers: 1}, snapshotTestQueries())
	}
	donor := withSeed(99)
	donor.Run(cescaTrace().span(0, 10))
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := withSeed(100).Restore(snap); err == nil {
		t.Fatal("a seed-99 snapshot restored into a seed-100 system")
	}
	if err := withSeed(99).Restore(snap); err != nil {
		t.Fatalf("restore under the snapshot's own seed: %v", err)
	}
}

// TestRestoreRefusalLeavesSystemUntouched: a snapshot Restore refuses
// installs nothing. Two refusals that used to come after part of the
// state was in — the last query's history ring at the wrong capacity
// (every earlier ring was installed first) and an invalid detector
// state (everything else was) — must leave Snapshot reading exactly
// what it read before the call.
func TestRestoreRefusalLeavesSystemUntouched(t *testing.T) {
	donor := detectingSystem()
	donor.Run(cescaTrace().span(0, 10))
	snapOf := func() *SystemSnapshot {
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return snap
	}
	shortRing, badDetector := snapOf(), snapOf()
	h := shortRing.Queries[len(shortRing.Queries)-1].Hist
	h.Feats, h.Costs = h.Feats[:len(h.Feats)-1], h.Costs[:len(h.Costs)-1]
	badDetector.Detect.DistHead = -1

	for name, snap := range map[string]*SystemSnapshot{"last ring short": shortRing, "detector head": badDetector} {
		sys := detectingSystem()
		before, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		if reflect.DeepEqual(before, snapOf()) {
			t.Fatalf("%s: the donor's state equals a fresh system's; the test is vacuous", name)
		}
		if err := sys.Restore(snap); err == nil {
			t.Fatalf("%s: restore must fail", name)
		}
		after, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the refused restore changed the system's state", name)
		}
	}
}

// TestRestoreRefusesOtherPredictor: the predictor is a constructor, not
// a ShardSpec field, so what guards a resume is the snapshot itself —
// its stamped kind and each ring's capacity. A snapshot of one kind or
// history length must not install into a system built with another,
// including slr into mlr, whose rings have the same shape; and a system
// whose queries predict with different kinds has no one kind to stamp.
func TestRestoreRefusesOtherPredictor(t *testing.T) {
	mlr30 := func() predict.Predictor { return predict.NewMLR(30, predict.DefaultThreshold) }
	snapOf := func(pred func() predict.Predictor) *SystemSnapshot {
		t.Helper()
		snap, err := snapshotErrorSystem(pred, snapshotTestQueries()).Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return snap
	}
	mlr := snapOf(nil)
	if mlr.PredictorKind != "mlr" {
		t.Fatalf("default predictor stamped %q, want mlr", mlr.PredictorKind)
	}
	for _, c := range []struct {
		name string
		snap *SystemSnapshot
		into func() predict.Predictor
	}{
		{"mlr into ewma", mlr, predictorKinds["ewma"]},
		{"mlr into slr", mlr, predictorKinds["slr"]},
		{"slr into mlr", snapOf(predictorKinds["slr"]), nil},
		{"mlr history 60 into 30", mlr, mlr30},
		{"mlr history 30 into 60", snapOf(mlr30), nil},
	} {
		if err := snapshotErrorSystem(c.into, snapshotTestQueries()).Restore(c.snap); err == nil {
			t.Errorf("%s: restore must fail", c.name)
		}
	}
	if err := snapshotErrorSystem(nil, snapshotTestQueries()).Restore(encodeDecode(t, mlr)); err != nil {
		t.Fatalf("same kind and history must restore: %v", err)
	}

	kinds := []func() predict.Predictor{predictorKinds["ewma"], mlr30}
	mixed := snapshotErrorSystem(func() predict.Predictor {
		p := kinds[0]()
		kinds = kinds[1:]
		return p
	}, snapshotTestQueries()[:2])
	if _, err := mixed.Snapshot(); err == nil {
		t.Fatal("snapshot of mixed predictor kinds must fail")
	}
}
