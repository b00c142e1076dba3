package loadshed

// snapshot.go — checkpointing a System between runs, so a shard can be
// drained on one process and resumed on another (or later) without
// perturbing a single decision. The snapshot is taken at the idle
// quiesce point after a run finishes — every bin flushed, every
// extractor rotated — which is why it is small: interval-scoped state
// (bitmaps, sketches, per-interval query accumulators) is rebuilt from
// scratch at the next interval start and carries nothing across the
// boundary. What does carry across, and is therefore captured, is:
//
//   - the Governor's controller state (error/overhead EWMAs, delay,
//     rtthresh, ssthr — Algorithm 1's memory),
//   - every RNG stream position (measurement noise, packet samplers)
//     and every flow sampler's interval counter (its hash function is
//     a pure function of seed and counter),
//   - every predictor's history ring, in ring-slot order — the
//     regressions iterate storage order, so preserving slot order
//     preserves every floating-point sum bit for bit,
//   - cumulative operation counters (extractor ops, MLR FCBF/fit ops)
//     and the reactive scheme's rate/delay memory.
//
// A restored System resumed on the remainder of a trace produces
// bit-identical bins to one that never stopped (TestConformance, row
// snapshot).

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/predict"
)

// SnapshotFormatVersion is the format version Encode stamps into every
// snapshot. DecodeSnapshot refuses any other version: a checkpoint
// written by a different build of the format must fail loudly at decode
// time, not as a torn Restore deep inside the engine.
const SnapshotFormatVersion = 1

// Sentinel errors of the snapshot/checkpoint codec, matched with
// errors.Is. Both wrap the underlying detail.
var (
	// ErrSnapshotVersion marks a snapshot or checkpoint whose format
	// version this build does not read.
	ErrSnapshotVersion = errors.New("unsupported snapshot format version")
	// ErrSnapshotCorrupt marks a truncated or corrupt snapshot or
	// checkpoint stream.
	ErrSnapshotCorrupt = errors.New("corrupt or truncated snapshot")
)

// QuerySnapshot is the cross-interval state of one registered query.
type QuerySnapshot struct {
	Name          string
	NoiseState    uint64 // per-query measurement-noise RNG position
	PSampState    uint64 // per-query packet-sampler RNG position
	FSampInterval uint64 // per-query flow-sampler interval counter; 0 for a query that does not flow-sample

	// Predictor state, populated according to the snapshot's
	// PredictorKind: Hist for mlr and slr (plus the MLR op counters),
	// the EWMA pair for ewma.
	Hist       *predict.HistoryState
	FCBFOps    int64
	FitOps     int64
	EWMAValue  float64
	EWMASeeded bool
}

// SystemSnapshot is a complete between-runs checkpoint of a System.
// Produce with System.Snapshot, persist with Encode/DecodeSnapshot
// (gob — the governor's slow-start threshold is +Inf until the first
// buffer loss, which JSON cannot carry), and install into a freshly
// constructed System with the same Config and query set via Restore.
type SystemSnapshot struct {
	// Version is stamped by Encode with SnapshotFormatVersion and
	// checked by DecodeSnapshot. A snapshot built in memory and passed
	// straight to Restore may leave it zero.
	Version int

	// Seed is the snapshotted system's Config.Seed, which keys its hash
	// tables and flow salt; Restore refuses a system built with another.
	Seed uint64
	// PredictorKind is the Name() of every query's predictor; a system
	// whose queries run different kinds is not snapshottable.
	PredictorKind string

	Governor      core.State
	NoiseState    uint64
	ShedSampState uint64
	GlobalExtOps  int64
	ShedExtOps    int64
	ReactiveRate  float64
	ReactiveDelay float64
	LastConsumed  float64

	// Detect is the drift detector's state, non-nil exactly when the
	// snapshotted system ran with Config.ChangeDetection under the
	// Predictive scheme. What a verdict did to the predictors — the
	// truncated history ring — travels inside each query's Hist, so a
	// restored mid-drift system resumes bit-identically
	// (TestConformance, spec+detect/snapshot).
	Detect *detect.State

	Queries []QuerySnapshot
}

// Encode writes the snapshot to w in gob encoding, stamping the current
// SnapshotFormatVersion.
func (snap *SystemSnapshot) Encode(w io.Writer) error {
	snap.Version = SnapshotFormatVersion
	return gob.NewEncoder(w).Encode(snap)
}

// DecodeSnapshot reads a snapshot written by Encode. A truncated or
// otherwise undecodable stream reports ErrSnapshotCorrupt; a decodable
// stream from an unknown format version reports ErrSnapshotVersion.
// Both are wrapped, so callers match with errors.Is.
func DecodeSnapshot(r io.Reader) (*SystemSnapshot, error) {
	snap := new(SystemSnapshot)
	if err := gob.NewDecoder(r).Decode(snap); err != nil {
		return nil, fmt.Errorf("loadshed: decode snapshot: %w (%v)", ErrSnapshotCorrupt, err)
	}
	if snap.Version != SnapshotFormatVersion {
		return nil, fmt.Errorf("loadshed: decode snapshot: %w (stream has v%d, this build reads v%d)",
			ErrSnapshotVersion, snap.Version, SnapshotFormatVersion)
	}
	return snap, nil
}

// Snapshot checkpoints the system's cross-interval state. It must be
// called at a quiesce point: between runs, or from a runner boundary
// hook at a measurement-interval boundary — the two points where every
// bin of the closing interval is flushed and interval-scoped state
// carries nothing forward (the hook fires before startInterval rotates
// extractors, matching the between-runs shape exactly). Custom-shedding
// systems are not snapshottable — their per-query shedding state lives
// inside the query implementations, outside the engine's reach — and
// neither is a system with registry ops still queued (apply them with a
// run, or snapshot before queuing).
func (s *System) Snapshot() (*SystemSnapshot, error) {
	if s.manager != nil {
		return nil, fmt.Errorf("loadshed: snapshot: custom shedding state is query-owned and not snapshottable")
	}
	s.regMu.Lock()
	pending := len(s.regOps)
	s.regMu.Unlock()
	if pending > 0 {
		return nil, fmt.Errorf("loadshed: snapshot: %d registry ops still queued; they would be lost", pending)
	}
	snap := &SystemSnapshot{
		Seed:          s.cfg.Seed,
		Governor:      s.gov.Snapshot(),
		NoiseState:    s.noise.State(),
		ShedSampState: s.shedSamp.State(),
		GlobalExtOps:  s.globalExt.Ops,
		ShedExtOps:    s.shedOps,
		ReactiveRate:  s.reactiveRate,
		ReactiveDelay: s.reactiveDelay,
		LastConsumed:  s.lastConsumed,
	}
	if s.det != nil {
		st := s.det.State()
		snap.Detect = &st
	}
	for _, rq := range s.qs {
		if rq == nil {
			continue // tombstoned by a mid-run removal; gone semantically
		}
		if kind := rq.pred.Name(); snap.PredictorKind == "" {
			snap.PredictorKind = kind
		} else if kind != snap.PredictorKind {
			return nil, fmt.Errorf("loadshed: snapshot: query %q predicts with %q, others with %q", rq.q.Name(), kind, snap.PredictorKind)
		}
		qs := QuerySnapshot{
			Name:       rq.q.Name(),
			NoiseState: rq.noise.State(),
			PSampState: rq.psamp.State(),
		}
		if rq.fsamp != nil {
			qs.FSampInterval = rq.fsamp.Interval()
		}
		switch p := rq.pred.(type) {
		case *predict.MLR:
			st := p.History().State()
			qs.Hist = &st
			qs.FCBFOps = p.FCBFOps
			qs.FitOps = p.FitOps
		case *predict.SLR:
			st := p.History().State()
			qs.Hist = &st
		case *predict.EWMA:
			qs.EWMAValue, qs.EWMASeeded = p.State()
		default:
			return nil, fmt.Errorf("loadshed: snapshot: unsupported predictor %T for query %q", rq.pred, qs.Name)
		}
		snap.Queries = append(snap.Queries, qs)
	}
	return snap, nil
}

// Restore installs a snapshot into the system. The receiver must be
// freshly constructed (or idle between runs) with the same Config and
// the same query set, in the same order, as the snapshotted system —
// query instances themselves need no restoring, because their state is
// interval-scoped and resets at the next interval start. Restore
// verifies what it can (seed, predictor kind, query names and order,
// every history ring, the detector's state) before it installs
// anything, and reports a mismatch with the system left as it was
// rather than installing a torn state.
func (s *System) Restore(snap *SystemSnapshot) error {
	if s.manager != nil {
		return fmt.Errorf("loadshed: restore: custom shedding systems are not snapshottable")
	}
	if snap.Seed != s.cfg.Seed {
		return fmt.Errorf("loadshed: restore: system has seed %d, snapshot has %d", s.cfg.Seed, snap.Seed)
	}
	if (snap.Detect != nil) != (s.det != nil) {
		return fmt.Errorf("loadshed: restore: change detection is %v on the system but %v in the snapshot",
			s.det != nil, snap.Detect != nil)
	}
	var live []*runQuery
	for _, rq := range s.qs {
		if rq != nil {
			live = append(live, rq)
		}
	}
	if len(live) != len(snap.Queries) {
		return fmt.Errorf("loadshed: restore: system has %d queries, snapshot has %d", len(live), len(snap.Queries))
	}
	for i, rq := range live {
		qs := &snap.Queries[i]
		if kind := rq.pred.Name(); kind != snap.PredictorKind {
			return fmt.Errorf("loadshed: restore: query %q predicts with %q, snapshot has %q", rq.q.Name(), kind, snap.PredictorKind)
		}
		if got := rq.q.Name(); got != qs.Name {
			return fmt.Errorf("loadshed: restore: query %d is %q, snapshot has %q", i, got, qs.Name)
		}
		switch p := rq.pred.(type) {
		case historian:
			if qs.Hist == nil {
				return fmt.Errorf("loadshed: restore: snapshot for %q carries no history", qs.Name)
			}
			if err := p.History().CheckState(*qs.Hist); err != nil {
				return fmt.Errorf("loadshed: restore %q: %w", qs.Name, err)
			}
		case *predict.EWMA:
		default:
			return fmt.Errorf("loadshed: restore: unsupported predictor %T for query %q", rq.pred, qs.Name)
		}
	}
	if snap.Detect != nil {
		if err := s.det.CheckState(*snap.Detect); err != nil {
			return fmt.Errorf("loadshed: restore: %w", err)
		}
	}

	// Everything checked: nothing below fails.
	for i, rq := range live {
		qs := &snap.Queries[i]
		switch p := rq.pred.(type) {
		case *predict.MLR:
			_ = p.History().SetState(*qs.Hist)
			p.FCBFOps, p.FitOps = qs.FCBFOps, qs.FitOps
		case *predict.SLR:
			_ = p.History().SetState(*qs.Hist)
		case *predict.EWMA:
			p.Restore(qs.EWMAValue, qs.EWMASeeded)
		}
		rq.noise.SetState(qs.NoiseState)
		rq.psamp.SetState(qs.PSampState)
		if rq.fsamp != nil { // older snapshots carry a counter for every query; only a flow sampler reads it
			rq.fsamp.SetInterval(qs.FSampInterval)
		}
	}
	s.gov.Restore(snap.Governor)
	s.noise.SetState(snap.NoiseState)
	s.shedSamp.SetState(snap.ShedSampState)
	s.globalExt.Ops = snap.GlobalExtOps
	s.shedOps = snap.ShedExtOps
	s.reactiveRate = snap.ReactiveRate
	s.reactiveDelay = snap.ReactiveDelay
	s.lastConsumed = snap.LastConsumed
	if snap.Detect != nil {
		_ = s.det.SetState(*snap.Detect)
	}
	return nil
}

// historian is a predictor that keeps a history ring: mlr and slr.
type historian interface{ History() *predict.History }
