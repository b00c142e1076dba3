package queries

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// trace — full-payload packet collection (Table 2.2, cost: medium).

// traceResult is the per-interval answer: how many packets and bytes
// were collected. No unsampled estimate exists (§2.2.1), so the values
// are raw.
type traceResult struct {
	Packets float64
	Bytes   float64
}

// traceQuery collects (counts, in this reproduction) every packet that
// matches its filter, paying a per-byte copy cost like the disk-bound
// original.
type traceQuery struct {
	cfg  Config
	pkts float64
	byts float64
}

// NewTraceQuery returns a trace query.
func NewTraceQuery(cfg Config) *traceQuery { return &traceQuery{cfg: cfg} }

// Name implements Query.
func (q *traceQuery) Name() string { return "trace" }

// Method implements Query.
func (q *traceQuery) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *traceQuery) MinRate() float64 { return 0.10 }

// Interval implements Query.
func (q *traceQuery) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *traceQuery) Process(b *pkt.Batch, _ float64) Ops {
	var ops Ops
	n := b.Packets()
	for i := range n {
		p := b.At(i)
		q.pkts++
		q.byts += float64(p.Size)
		ops.Bytes += int64(len(p.Payload)) + 40 // payload copy plus header record
	}
	ops.Packets = int64(n)
	return ops
}

// Flush implements Query.
func (q *traceQuery) Flush() (Result, Ops) {
	r := traceResult{Packets: q.pkts, Bytes: q.byts}
	q.pkts, q.byts = 0, 0
	return r, Ops{Flushes: 1}
}

// Error implements Query: one minus the fraction of packets processed
// relative to the lossless run (§2.2.1 — no unsampled recovery exists).
func (q *traceQuery) Error(got, ref Result) float64 {
	g, r := got.(traceResult), ref.(traceResult)
	if r.Packets == 0 {
		return 0
	}
	frac := g.Packets / r.Packets
	if frac > 1 {
		frac = 1
	}
	return 1 - frac
}

// Reset implements Query.
func (q *traceQuery) Reset() { q.pkts, q.byts = 0, 0 }

// ---------------------------------------------------------------------
// pattern-search — byte-sequence identification in payloads (cost: high).

// patternResult is the per-interval answer.
type patternResult struct {
	Processed float64 // packets scanned
	Matches   float64 // packets containing the pattern
}

// patternSearch scans every captured payload for a byte pattern with
// the Boyer-Moore-Horspool algorithm, the [23] strategy of Table 2.2,
// behind a 2-gram filter that decides which stretches of a payload the
// Horspool loop has to visit at all. Its cost is linear in bytes
// processed.
type patternSearch struct {
	cfg     Config
	pattern []byte
	skip    [256]int
	// grams is the set of the pattern's 2-grams, one bit per byte pair
	// (8 KiB): bit text[j-1]<<8|text[j] is set when those two bytes
	// occur adjacently somewhere in the pattern.
	grams     [1 << 16 / 64]uint64
	processed float64
	matches   float64
}

// NewPatternSearch returns a pattern-search query; a nil pattern
// defaults to the generator's HTTP pattern so matches actually occur.
func NewPatternSearch(cfg Config, pattern []byte) *patternSearch {
	if len(pattern) == 0 {
		pattern = trace.PatternHTTP
	}
	q := &patternSearch{cfg: cfg, pattern: pattern}
	m := len(pattern)
	for i := range q.skip {
		q.skip[i] = m
	}
	for i := 0; i < m-1; i++ {
		q.skip[pattern[i]] = m - 1 - i
		g := uint(pattern[i])<<8 | uint(pattern[i+1])
		q.grams[g>>6] |= 1 << (g & 63)
	}
	return q
}

// search reports whether the pattern occurs in text, returning the
// number of byte positions examined (charged to the cost model: the
// whole payload must be read from memory even when the search skips).
//
// An occurrence is a window of m bytes, and the m−1 2-grams inside a
// window end at m−1 consecutive positions, exactly one of which is a
// multiple of m−1. So it is enough to test the 2-grams ending at
// m−1, 2(m−1), … against the pattern's own: where one is absent no
// window over it can match, and where one is present only the ≤ m−1
// windows that contain it are handed to Horspool. The probes are
// independent loads; Horspool alone waits on load → skip[] → load at
// every step.
func (q *patternSearch) search(text []byte) (found bool, scanned int) {
	m := len(q.pattern)
	n := len(text)
	if n < m {
		return false, n
	}
	if m < 2 {
		return q.horspool(text, 0, n-m), n
	}
	for j := m - 1; j < n; j += m - 1 {
		g := uint(text[j-1])<<8 | uint(text[j])
		if q.grams[g>>6]&(1<<(g&63)) != 0 && q.horspool(text, max(j-m+1, 0), min(j-1, n-m)) {
			return true, n
		}
	}
	return false, n
}

// horspool reports whether the pattern occurs in text at a start
// offset in [lo, hi]; hi ≤ len(text)−m.
func (q *patternSearch) horspool(text []byte, lo, hi int) bool {
	m := len(q.pattern)
	for i := lo; i <= hi; {
		j := m - 1
		for j >= 0 && text[i+j] == q.pattern[j] {
			j--
		}
		if j < 0 {
			return true
		}
		i += q.skip[text[i+m-1]]
	}
	return false
}

// Name implements Query.
func (q *patternSearch) Name() string { return "pattern-search" }

// Method implements Query.
func (q *patternSearch) Method() sampling.Method { return sampling.Packet }

// MinRate implements Query (Table 5.2).
func (q *patternSearch) MinRate() float64 { return 0.10 }

// Interval implements Query.
func (q *patternSearch) Interval() time.Duration { return q.cfg.interval() }

// Process implements Query.
func (q *patternSearch) Process(b *pkt.Batch, _ float64) Ops {
	var ops Ops
	n := b.Packets()
	for i := range n {
		p := b.At(i)
		q.processed++
		if len(p.Payload) > 0 {
			found, scanned := q.search(p.Payload)
			ops.Bytes += int64(scanned)
			if found {
				q.matches++
			}
		}
	}
	ops.Packets = int64(n)
	return ops
}

// Flush implements Query.
func (q *patternSearch) Flush() (Result, Ops) {
	r := patternResult{Processed: q.processed, Matches: q.matches}
	q.processed, q.matches = 0, 0
	return r, Ops{Flushes: 1}
}

// Error implements Query: one minus the fraction of packets processed
// (§2.2.1).
func (q *patternSearch) Error(got, ref Result) float64 {
	g, r := got.(patternResult), ref.(patternResult)
	if r.Processed == 0 {
		return 0
	}
	frac := g.Processed / r.Processed
	if frac > 1 {
		frac = 1
	}
	return 1 - frac
}

// Reset implements Query.
func (q *patternSearch) Reset() { q.processed, q.matches = 0, 0 }
