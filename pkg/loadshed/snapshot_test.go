package loadshed

// snapshot_test.go pins the checkpoint contract: a System snapshotted
// at an interval boundary and restored into a fresh System resumes the
// trace bit-identically to one that never stopped.

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/trace"
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

// TestSnapshotRestoreBitIdentical: run 4 intervals straight through;
// separately run 2 intervals, snapshot (through an encode/decode round
// trip), restore into a fresh System, run the remaining 2. Bins and
// interval results must match the uninterrupted run bit for bit.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, kind := range []string{"mlr", "slr", "ewma"} {
		t.Run(kind, func(t *testing.T) {
			const dur = 4 * time.Second // 4 measurement intervals
			g := trace.NewGenerator(trace.CESCA2(9, dur, 0.4))
			batches := trace.Record(g)
			bin := g.TimeBin()
			perInterval := int(time.Second / bin)
			cut := 2 * perInterval // exact interval boundary
			if cut <= 0 || cut >= len(batches) {
				t.Fatalf("bad cut %d of %d batches", cut, len(batches))
			}

			qs := snapshotTestQueries()
			capacity := MeasureCapacity(trace.NewMemorySource(batches, bin), qs, 77) * 0.7
			mkSys := func() *System {
				return New(Config{
					Scheme:    Predictive,
					Strategy:  MMFSPkt(),
					Seed:      99,
					Capacity:  capacity,
					Workers:   1,
					Predictor: predictorKinds[kind],
				}, snapshotTestQueries())
			}

			ref := mkSys().Run(trace.NewMemorySource(batches, bin))

			s1 := mkSys()
			r1 := s1.Run(trace.NewMemorySource(batches[:cut], bin))
			snap, err := s1.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			decoded, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			s2 := mkSys()
			if err := s2.Restore(decoded); err != nil {
				t.Fatalf("restore: %v", err)
			}
			r2 := s2.Run(trace.NewMemorySource(batches[cut:], bin))

			if got, want := len(r1.Bins)+len(r2.Bins), len(ref.Bins); got != want {
				t.Fatalf("split runs produced %d bins, uninterrupted %d", got, want)
			}
			for i := range r1.Bins {
				if !reflect.DeepEqual(r1.Bins[i], ref.Bins[i]) {
					t.Fatalf("pre-snapshot bin %d diverged:\n got %+v\nwant %+v", i, r1.Bins[i], ref.Bins[i])
				}
			}
			for i := range r2.Bins {
				if !reflect.DeepEqual(r2.Bins[i], ref.Bins[len(r1.Bins)+i]) {
					t.Fatalf("resumed bin %d diverged from uninterrupted bin %d:\n got %+v\nwant %+v",
						i, len(r1.Bins)+i, r2.Bins[i], ref.Bins[len(r1.Bins)+i])
				}
			}

			// Interval results: the resumed run restarts its interval
			// numbering at 0; everything else must match bit for bit.
			if got, want := len(r1.Intervals)+len(r2.Intervals), len(ref.Intervals); got != want {
				t.Fatalf("split runs produced %d intervals, uninterrupted %d", got, want)
			}
			for i := range r1.Intervals {
				if !reflect.DeepEqual(r1.Intervals[i], ref.Intervals[i]) {
					t.Fatalf("pre-snapshot interval %d diverged", i)
				}
			}
			for i := range r2.Intervals {
				got := r2.Intervals[i]
				want := ref.Intervals[len(r1.Intervals)+i]
				got.Index = want.Index // numbering restarts; content must not
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed interval %d diverged from uninterrupted interval %d", i, want.Index)
				}
			}
		})
	}
}

// TestRestoreSnapshotOfEarlierBuild restores testdata/snapshot_pr15.gob —
// written by the build that still ran a second extractor over a copied
// shed stream, at the two-interval cut of TestSnapshotRestoreBitIdentical's
// mlr case — and resumes the trace. The bins must be the uninterrupted
// run's: the checkpoint format outlives the shed path's rewrite, and the
// state that build reached at the cut (ShedSampState and ShedExtOps
// included) is the state this one reaches.
func TestRestoreSnapshotOfEarlierBuild(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_pr15.gob")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.ShedExtOps == 0 {
		t.Fatal("fixture never shed; it does not exercise the shed-stream fields")
	}

	g := trace.NewGenerator(trace.CESCA2(9, 4*time.Second, 0.4))
	batches := trace.Record(g)
	bin := g.TimeBin()
	cut := 2 * int(time.Second/bin)
	capacity := MeasureCapacity(trace.NewMemorySource(batches, bin), snapshotTestQueries(), 77) * 0.7
	mkSys := func() *System {
		return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: capacity, Workers: 1}, snapshotTestQueries())
	}

	straight := mkSys()
	ref := straight.Run(trace.NewMemorySource(batches, bin))
	resumed := mkSys()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := resumed.Run(trace.NewMemorySource(batches[cut:], bin))
	if len(got.Bins) != len(ref.Bins)-cut {
		t.Fatalf("resumed run produced %d bins, want %d", len(got.Bins), len(ref.Bins)-cut)
	}
	for i := range got.Bins {
		if !reflect.DeepEqual(got.Bins[i], ref.Bins[cut+i]) {
			t.Fatalf("resumed bin %d diverged from uninterrupted bin %d:\n got %+v\nwant %+v", i, cut+i, got.Bins[i], ref.Bins[cut+i])
		}
	}
	if resumed.shedOps != straight.shedOps {
		t.Fatalf("shed op counter: resumed %d, uninterrupted %d", resumed.shedOps, straight.shedOps)
	}
}

// snapshotErrorSystem is the small predictive system the refusal tests
// snapshot and restore.
func snapshotErrorSystem(pred func() predict.Predictor, qs []queries.Query) *System {
	return New(Config{
		Scheme:    Predictive,
		Strategy:  MMFSPkt(),
		Seed:      99,
		Capacity:  1e6,
		Workers:   1,
		Predictor: pred,
	}, qs)
}

// TestSnapshotRestoreErrors pins the refusal paths: snapshots refuse
// queued registry ops, and Restore refuses mismatched query sets
// instead of installing a torn state.
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
}

// TestRestoreRefusalLeavesSystemUntouched: a snapshot Restore refuses
// installs nothing. Two refusals that used to come after part of the
// state was in — the last query's history ring at the wrong capacity
// (every earlier ring was installed first) and an invalid detector
// state (everything else was) — must leave Snapshot reading exactly
// what it read before the call.
func TestRestoreRefusalLeavesSystemUntouched(t *testing.T) {
	mk := func() *System {
		return New(Config{Scheme: Predictive, Strategy: MMFSPkt(), Seed: 99, Capacity: 1e6, Workers: 1, ChangeDetection: true},
			snapshotTestQueries())
	}
	donor := mk()
	g := trace.NewGenerator(trace.CESCA2(9, time.Second, 0.4))
	donor.Run(trace.NewMemorySource(trace.Record(g), g.TimeBin()))
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
		sys := mk()
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
