package loadshed

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/trace"
)

// FuzzRestoreCheckpoint walks an arbitrary checkpoint blob down the
// adoption path — the bytes an adopt frame or a -state-dir file hands
// the process: decode, rebuild the System from the spec, restore the
// snapshot, stream two bins. Every stage may refuse the blob; none may
// panic, and a blob all of them accept must run. The corpus under
// testdata/fuzz holds a checkpoint around the PR 15 snapshot fixture
// and one blob per hole this target was written for: a history ring
// marked full over nil rows, a short feature row, a detector ring head
// past its ring, a spec asking for 2^30 workers.
func FuzzRestoreCheckpoint(f *testing.F) {
	g := trace.NewGenerator(trace.CESCA2(1, 200*time.Millisecond, 0.05))
	batches, bin := trace.Record(g), g.TimeBin()

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
		if err := sys.Restore(cp.Snap); err != nil {
			return
		}
		sys.Stream(trace.NewMemorySource(batches, bin), nil)
	})
}
