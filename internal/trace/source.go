// Package trace generates, stores and replays synthetic packet traces.
//
// The thesis evaluates on real captures (CESCA, ABILENE, CENIC, UPC —
// Table 2.3/2.4) that we cannot redistribute; this package substitutes a
// seeded synthetic generator whose traffic shares the statistical
// structure that drives query cost and feature dynamics: heavy-tailed
// flow sizes, empirical packet-size mix, Zipf server popularity,
// application port mix, bursty load modulation and optional payloads
// carrying application signatures. Anomaly injectors reproduce the
// attacks used in §3.4.3, §4.5.5 and §6.3.2. Everything is deterministic
// per seed, so "collecting a reference trace" is just replaying the same
// source.
package trace

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/pkt"
)

// DefaultTimeBin is the batch duration used throughout the thesis.
const DefaultTimeBin = 100 * time.Millisecond

// Source produces a trace one batch at a time. Implementations must be
// deterministic: Reset followed by the same sequence of NextBatch calls
// yields identical packets, which is how reference (ground-truth) runs
// are obtained.
type Source interface {
	// NextBatch returns the next batch, or ok=false at end of trace.
	//
	// Ownership: the returned packet slice MAY alias storage the source
	// retains and replays (MemorySource does; samplers likewise return
	// the input slice unchanged at rate >= 1). Consumers must therefore
	// treat the batch as read-only — no mutating packets in place, no
	// appending to the slice — and copy if they need either. Everything
	// downstream of the engine honours this: the pipeline only ever
	// re-slices and reads. In exchange, implementations must not touch
	// a delivered batch's packets afterwards either (delivering a fresh
	// or immutable slice each call), so the caller may keep it across
	// NextBatch calls without copying — until it hands the batch back
	// through Recycle, if the source is a Recycler and it chooses to.
	NextBatch() (b pkt.Batch, ok bool)
	// Reset rewinds the source to the beginning of the trace.
	Reset()
	// TimeBin returns the batch duration.
	TimeBin() time.Duration
}

// Recycler is implemented by a Source that can refill a delivered
// batch's storage (LiveSource). Recycle gives the batch up: the caller
// must be done with every packet and payload byte of b, and must not
// call it twice for one delivery. Calling it is optional — a batch that
// is never recycled stays the consumer's for good, as the Source
// contract says — and the engine does so after each bin's last read
// (runner.step), so a run allocates no per-bin ingest storage.
type Recycler interface {
	Recycle(b pkt.Batch)
}

// MemorySource replays a fixed slice of batches. It serves as the
// in-memory form of a recorded trace and as a convenient test double.
type MemorySource struct {
	Batches []pkt.Batch
	Bin     time.Duration
	next    int
}

// NewMemorySource wraps batches in a Source with the given bin length.
func NewMemorySource(batches []pkt.Batch, bin time.Duration) *MemorySource {
	return &MemorySource{Batches: batches, Bin: bin}
}

// NextBatch implements Source. The returned batch aliases the stored
// packet slice (replays would otherwise have to copy the whole trace
// every run); per the Source contract the caller must treat it as
// read-only.
func (m *MemorySource) NextBatch() (pkt.Batch, bool) {
	if m.next >= len(m.Batches) {
		return pkt.Batch{}, false
	}
	b := m.Batches[m.next]
	m.next++
	return b, true
}

// Reset implements Source.
func (m *MemorySource) Reset() { m.next = 0 }

// TimeBin implements Source.
func (m *MemorySource) TimeBin() time.Duration { return m.Bin }

// Record drains src and returns all its batches, resetting src first.
// It is the standard way to capture a reference trace for accuracy
// comparisons.
func Record(src Source) []pkt.Batch {
	src.Reset()
	var out []pkt.Batch
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		out = append(out, b)
	}
	src.Reset()
	return out
}

// sortBatch orders packets by timestamp; injection appends attack
// packets out of order and queries such as high-watermark assume
// time-ordered delivery.
func sortBatch(b *pkt.Batch) {
	byTs := func(x, y pkt.Packet) int { return cmp.Compare(x.Ts, y.Ts) }
	// Live bins and generator bins without injected traffic arrive in
	// order; the check is one pass, the merge sort is not.
	if slices.IsSortedFunc(b.Pkts, byTs) {
		return
	}
	// Stable sort, so packets of equal timestamp keep generation order;
	// the generic form avoids sort.SliceStable's per-call boxing.
	slices.SortStableFunc(b.Pkts, byTs)
}

// Stats summarizes a trace the way Table 2.3 reports its datasets.
type Stats struct {
	Batches  int
	Packets  int
	Bytes    int64
	Duration time.Duration
	AvgMbps  float64
	MaxMbps  float64
	MinMbps  float64
	AvgPPS   float64
}

// Measure drains src and computes summary statistics, resetting the
// source afterwards.
func Measure(src Source) Stats {
	src.Reset()
	defer src.Reset()
	var s Stats
	bin := src.TimeBin().Seconds()
	first := true
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		s.Batches++
		s.Packets += b.Packets()
		bytes := b.Bytes()
		s.Bytes += int64(bytes)
		mbps := float64(bytes) * 8 / bin / 1e6
		if mbps > s.MaxMbps {
			s.MaxMbps = mbps
		}
		if first || mbps < s.MinMbps {
			s.MinMbps = mbps
		}
		first = false
	}
	s.Duration = time.Duration(s.Batches) * src.TimeBin()
	if sec := s.Duration.Seconds(); sec > 0 {
		s.AvgMbps = float64(s.Bytes) * 8 / sec / 1e6
		s.AvgPPS = float64(s.Packets) / sec
	}
	return s
}
