package detect

import "fmt"

// State is the gob-encodable checkpoint of a Detector, captured with
// Detector.State and installed with SetState. Like predict.HistoryState
// it copies ring storage in slot order, so a restored detector replays
// the remainder of a stream bit-identically to one that never stopped.
type State struct {
	Bins    int64
	Cool    int
	Changes int64
	LastBin int64

	// Page–Hinkley accumulators.
	PHN    int64
	PHMean float64
	PHUp   float64
	PHDn   float64
	PHMinU float64
	PHMaxD float64

	// CUSUM accumulators.
	CSeeded bool
	CBase   float64
	CUp     float64
	CDn     float64

	// Distribution-distance windows.
	DistRing []float64
	DistHead int
	DistN    int
	RefSum   []float64
	RefSq    []float64
	CurSum   []float64
	CurSq    []float64
}

// State captures the detector's accumulated state.
func (d *Detector) State() State {
	st := State{
		Bins:     d.bins,
		Cool:     d.cool,
		Changes:  d.changes,
		LastBin:  d.lastBin,
		PHN:      d.ph.n,
		PHMean:   d.ph.mean,
		PHUp:     d.ph.mUp,
		PHDn:     d.ph.mDn,
		PHMinU:   d.ph.minU,
		PHMaxD:   d.ph.maxD,
		CSeeded:  d.cusum.seeded,
		CBase:    d.cusum.base,
		CUp:      d.cusum.sUp,
		CDn:      d.cusum.sDn,
		DistRing: append([]float64(nil), d.dist.ring...),
		DistHead: d.dist.head,
		DistN:    d.dist.n,
		RefSum:   append([]float64(nil), d.dist.refSum...),
		RefSq:    append([]float64(nil), d.dist.refSq...),
		CurSum:   append([]float64(nil), d.dist.curSum...),
		CurSq:    append([]float64(nil), d.dist.curSq...),
	}
	return st
}

// SetState installs a checkpoint captured from a detector with the same
// Config and feature count; dimension mismatches are reported rather
// than installed torn.
func (d *Detector) SetState(st State) error {
	if err := d.CheckState(st); err != nil {
		return err
	}
	d.bins, d.cool, d.changes, d.lastBin = st.Bins, st.Cool, st.Changes, st.LastBin
	d.ph.n, d.ph.mean = st.PHN, st.PHMean
	d.ph.mUp, d.ph.mDn, d.ph.minU, d.ph.maxD = st.PHUp, st.PHDn, st.PHMinU, st.PHMaxD
	d.cusum.seeded, d.cusum.base = st.CSeeded, st.CBase
	d.cusum.sUp, d.cusum.sDn = st.CUp, st.CDn
	copy(d.dist.ring, st.DistRing)
	d.dist.head, d.dist.n = st.DistHead, st.DistN
	copy(d.dist.refSum, st.RefSum)
	copy(d.dist.refSq, st.RefSq)
	copy(d.dist.curSum, st.CurSum)
	copy(d.dist.curSq, st.CurSq)
	return nil
}

// CheckState reports whether SetState would install st, without
// installing it.
func (d *Detector) CheckState(st State) error {
	if len(st.DistRing) != len(d.dist.ring) {
		return fmt.Errorf("detect: state ring has %d floats, detector holds %d (Window or feature-count mismatch)", len(st.DistRing), len(d.dist.ring))
	}
	for _, v := range [][]float64{st.RefSum, st.RefSq, st.CurSum, st.CurSq} {
		if len(v) != d.dist.nf {
			return fmt.Errorf("detect: state has a %d-feature window sum, detector expects %d", len(v), d.dist.nf)
		}
	}
	if w := 2 * d.dist.Window; st.DistHead < 0 || st.DistHead >= w || st.DistN < 0 || st.DistN > w {
		return fmt.Errorf("detect: state ring head %d, fill %d outside a %d-slot ring", st.DistHead, st.DistN, w)
	}
	return nil
}
