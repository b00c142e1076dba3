package loadshed

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// FuzzRestoreCheckpoint walks an arbitrary checkpoint blob down the
// adoption path — the bytes an adopt frame or a -state-dir file hands
// the process: decode, rebuild the System from the spec, restore the
// snapshot, stream two bins; a spec whose ingest is the generator also
// opens it through PresetConfig for one batch, as adoption does. Every
// stage may refuse the blob; none may panic or hang, and a blob all of
// them accept must run. The corpus under testdata/fuzz holds a
// checkpoint around the PR 15 snapshot fixture and one blob per hole
// this target was written for: a history ring marked full over nil
// rows, a short feature row, a detector ring head past its ring, a spec
// asking for 2^30 workers, a generator spec with a NaN scale.
func FuzzRestoreCheckpoint(f *testing.F) {
	two := record(trace.NewGenerator(trace.CESCA2(1, 200*time.Millisecond, 0.05)))

	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		cp, err := DecodeShardCheckpoint(bytes.NewReader(blob))
		if err != nil {
			return
		}
		sys, err := cp.Spec.NewSystem()
		if err != nil {
			return
		}
		if cp.Spec.Ingest == "gen" {
			cfg, err := PresetConfig(cp.Spec.Preset, cp.Spec.TraceSeed, cp.Spec.TraceDur, cp.Spec.Scale)
			if err != nil {
				return
			}
			NewGenerator(cfg).NextBatch()
		}
		if err := sys.Restore(cp.Snap); err != nil {
			return
		}
		sys.Stream(two.src(), nil)
	})
}

// FuzzDecodeSnapshot walks an arbitrary bare state file — what
// SystemSnapshot.Encode writes — down the resume path: decode, restore
// into a fresh system of the snapshot tests' shape, stream two bins.
// Decode and Restore may refuse the blob; nothing may panic, and a
// refused Restore must leave the system's Snapshot as it was. The
// corpus under testdata/fuzz holds the earlier build's snapshot fixture
// (testdata/snapshot_pr15.gob), a truncation of it, the fixture stamped
// with another format version and the fixture with its last history
// ring one row short.
func FuzzDecodeSnapshot(f *testing.F) {
	two := record(trace.NewGenerator(trace.CESCA2(1, 200*time.Millisecond, 0.05)))

	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(blob))
		if err != nil {
			return
		}
		sys := snapshotErrorSystem(nil, snapshotTestQueries())
		before, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a fresh system: %v", err)
		}
		if err := sys.Restore(snap); err != nil {
			if after, _ := sys.Snapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused restore (%v) changed the system's state", err)
			}
			return
		}
		sys.Stream(two.src(), nil)
	})
}
