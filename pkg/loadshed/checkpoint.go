package loadshed

// checkpoint.go — the transferable form of a shard. A SystemSnapshot
// alone is not enough to adopt a shard on another process: the adopter
// also has to rebuild an equivalent System (same scheme, strategy,
// seeds, query set in order) and reopen the shard's traffic
// source positioned at the right batch. ShardCheckpoint bundles all
// three — a self-describing ShardSpec, the snapshot, and the bin to
// resume from — into one gob blob. Node.boundary encodes it once; the
// control plane (internal/control) carries and retains the blob without
// decoding it, over the coordinator link and into the coordinator's
// state directory, with the shard's name, bin and final flag beside it.
//
// The resume contract is TestConformance's snapshot row, shipped: the
// checkpoint is cut at a measurement-interval boundary (the runner's
// boundary hook), Bin is the first unprocessed bin, and a restored
// System streaming ResumeSource(src, Bin) produces bit-identical bins
// to the original system had it never stopped.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
)

// CheckpointFormatVersion is the ShardCheckpoint wire version; it moves
// independently of SnapshotFormatVersion (the envelope can grow fields
// without the snapshot body changing).
const CheckpointFormatVersion = 1

// QuerySpec names one query of a shard's set, with the construction
// parameters QueryByName needs to rebuild it.
type QuerySpec struct {
	Kind     string        // the query's Name() string, as QueryByName accepts
	Seed     uint64        // QueryConfig.Seed the original was built with
	Interval time.Duration // QueryConfig.Interval; 0 = the 1 s default
}

// ShardSpec describes how to rebuild a shard's System and traffic
// source from nothing — the part of a checkpoint that is configuration
// rather than state. Only spec-constructible shards are adoptable:
// queries must come from QueryByName (custom instances cannot be
// serialized), custom shedding must be off (Snapshot refuses it
// anyway), and the predictor is the default MLR (Restore refuses a
// snapshot of another predictor kind or history length; blobs of
// earlier builds that still carry PredictorKind/HistoryLen decode with
// both ignored).
type ShardSpec struct {
	// System configuration.
	Scheme          string // ParseScheme name
	Strategy        string // StrategyByName name; "" = single global rate
	Seed            uint64
	Capacity        float64
	Workers         int
	ChangeDetection bool
	CustomShedding  bool // absent (false) in blobs of earlier builds
	Queries         []QuerySpec

	// Cluster identity.
	MinShare float64 // the shard's guaranteed budget fraction

	// Traffic source. Ingest uses cmd/lsd's -ingest syntax ("gen",
	// "udp://...", "unix://...", "tail:path"); the Preset/TraceSeed/
	// TraceDur/Scale fields parameterize the generator when Ingest is
	// "gen". Deterministic sources (gen, tail, trace files) resume
	// exactly via ResumeSource; a live socket ingest cannot be
	// repositioned and resumes best-effort from the live stream.
	Ingest    string
	Preset    string
	TraceSeed uint64
	TraceDur  time.Duration
	Scale     float64
}

// Bounds on what a spec may ask NewSystem to build: a spec arrives
// inside a checkpoint, from a socket or a state directory, and these
// fields size goroutine pools and slices directly.
const (
	maxSpecWorkers = 256
	maxSpecQueries = 64
)

// NewSystem rebuilds the shard's System from the spec. The result is
// fresh (no history); install the checkpointed state with Restore.
func (sp *ShardSpec) NewSystem() (*System, error) {
	scheme, err := ParseScheme(sp.Scheme)
	if err != nil {
		return nil, fmt.Errorf("loadshed: shard spec: %w", err)
	}
	if math.IsNaN(sp.Capacity) {
		return nil, fmt.Errorf("loadshed: shard spec: capacity is NaN")
	}
	if sp.Workers < 0 || sp.Workers > maxSpecWorkers || len(sp.Queries) > maxSpecQueries {
		return nil, fmt.Errorf("loadshed: shard spec: %d workers or %d queries out of bounds (at most %d, %d)",
			sp.Workers, len(sp.Queries), maxSpecWorkers, maxSpecQueries)
	}
	cfg := Config{
		Scheme:          scheme,
		Capacity:        sp.Capacity,
		Seed:            sp.Seed,
		Workers:         sp.Workers,
		ChangeDetection: sp.ChangeDetection,
		CustomShedding:  sp.CustomShedding,
	}
	if sp.Strategy != "" {
		if cfg.Strategy, err = StrategyByName(sp.Strategy); err != nil {
			return nil, fmt.Errorf("loadshed: shard spec: %w", err)
		}
	}
	if len(sp.Queries) == 0 {
		return nil, fmt.Errorf("loadshed: shard spec: no queries")
	}
	qs := make([]Query, len(sp.Queries))
	for i, q := range sp.Queries {
		qs[i], err = QueryByName(q.Kind, QueryConfig{Seed: q.Seed, Interval: q.Interval})
		if err != nil {
			return nil, fmt.Errorf("loadshed: shard spec: %w", err)
		}
	}
	return New(cfg, qs), nil
}

// ShardCheckpoint is one shard frozen at a measurement-interval
// boundary, ready to resume anywhere: spec to rebuild, snapshot to
// restore, bin to reposition the source at.
type ShardCheckpoint struct {
	// Version is stamped by EncodeBytes with CheckpointFormatVersion.
	Version int

	Node  string // the shard's cluster name
	Bin   int64  // first unprocessed bin; resume the source here
	Final bool   // set on the drain checkpoint that ends a migration
	Spec  ShardSpec
	Snap  *SystemSnapshot
}

// encode writes the checkpoint to w in gob encoding, stamping the
// current format versions.
func (cp *ShardCheckpoint) encode(w io.Writer) error {
	cp.Version = CheckpointFormatVersion
	if cp.Snap != nil {
		cp.Snap.Version = SnapshotFormatVersion
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("loadshed: encode checkpoint: %w", err)
	}
	return nil
}

// EncodeBytes is encode into a fresh byte slice — the form the
// transport frames and the coordinator's retention store carry.
func (cp *ShardCheckpoint) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := cp.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeShardCheckpoint reads a checkpoint written by Encode, with the
// same sentinel discipline as DecodeSnapshot: undecodable streams
// report ErrSnapshotCorrupt, decodable streams from an unknown format
// report ErrSnapshotVersion.
func DecodeShardCheckpoint(r io.Reader) (*ShardCheckpoint, error) {
	cp := new(ShardCheckpoint)
	if err := gob.NewDecoder(r).Decode(cp); err != nil {
		return nil, fmt.Errorf("loadshed: decode checkpoint: %w (%v)", ErrSnapshotCorrupt, err)
	}
	if cp.Version != CheckpointFormatVersion {
		return nil, fmt.Errorf("loadshed: decode checkpoint: %w (stream has v%d, this build reads v%d)",
			ErrSnapshotVersion, cp.Version, CheckpointFormatVersion)
	}
	if cp.Snap == nil {
		return nil, fmt.Errorf("loadshed: decode checkpoint: %w (no snapshot body)", ErrSnapshotCorrupt)
	}
	if cp.Snap.Version != SnapshotFormatVersion {
		return nil, fmt.Errorf("loadshed: decode checkpoint: %w (snapshot has v%d, this build reads v%d)",
			ErrSnapshotVersion, cp.Snap.Version, SnapshotFormatVersion)
	}
	return cp, nil
}

// resumedSource positions a source at a batch offset: every Reset
// rewinds the inner source and then discards skip batches, so a run
// started on it begins at the checkpoint bin. The discarded prefix
// keeps its original Start offsets, which is what makes resumed bins
// line up bit-for-bit with the uninterrupted run's.
type resumedSource struct {
	inner trace.Source
	skip  int64
	err   error
}

// ResumeSource wraps src so runs start at batch index skip — the shape
// an adopted shard hands to Stream: the engine's run setup calls Reset,
// and the wrapper re-skips the already-processed prefix afterwards. A
// source that ends inside the prefix poisons the wrapper: NextBatch
// reports end-of-trace and Err explains.
func ResumeSource(src trace.Source, skip int64) trace.Source {
	if skip <= 0 {
		return src
	}
	return &resumedSource{inner: src, skip: skip}
}

func (r *resumedSource) Reset() {
	r.inner.Reset()
	r.err = nil
	for i := int64(0); i < r.skip; i++ {
		if _, ok := r.inner.NextBatch(); !ok {
			r.err = fmt.Errorf("loadshed: resume: source ended at batch %d while skipping to %d", i, r.skip)
			if e := SourceErr(r.inner); e != nil {
				r.err = fmt.Errorf("%v: %w", r.err, e)
			}
			return
		}
	}
}

func (r *resumedSource) NextBatch() (pkt.Batch, bool) {
	if r.err != nil {
		return pkt.Batch{}, false
	}
	return r.inner.NextBatch()
}

func (r *resumedSource) TimeBin() time.Duration { return r.inner.TimeBin() }

// Err surfaces a failed skip, or the inner source's own stream error.
func (r *resumedSource) Err() error {
	if r.err != nil {
		return r.err
	}
	return SourceErr(r.inner)
}
