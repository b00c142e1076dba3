// Package queries implements the ten CoMo traffic queries of thesis
// Table 2.2 behind a black-box interface, together with the instrumented
// cost model that stands in for the paper's TSC cycle measurements.
//
// Each query really executes its data-structure work (hash tables,
// prefix aggregation, Boyer-Moore scans, fan-out bitmaps) and counts the
// basic operations it performs; a CostModel maps operation counts to
// synthetic CPU cycles. The load shedding system sees only the final
// cycle number, preserving the paper's black-box contract, while the
// per-query relation between traffic features and cost (new flows for
// flows, bytes for pattern-search, packets for counter, ...) emerges
// from real execution rather than being scripted.
package queries

import (
	"time"

	"repro/internal/pkt"
	"repro/internal/sampling"
)

// Ops counts the basic operations performed by a query while processing
// traffic. Field semantics follow §3.1's observation that query cost is
// dominated by "basic operations used to maintain its state".
type Ops struct {
	Packets int64 // packets touched
	Bytes   int64 // payload bytes scanned or copied
	Lookups int64 // state lookups / in-place updates
	Inserts int64 // new state entries created
	Sorts   int64 // comparison steps in ranking structures
	Flushes int64 // entries written out / cleared at interval end
}

// CostModel maps operation counts to cycles. The defaults are tuned so
// the ten queries reproduce the relative cost ordering of Figure 2.2
// (pattern-search and p2p-detector byte-bound and expensive, counter and
// application packet-bound and cheap, flows driven by flow arrivals).
type CostModel struct {
	PerPacket float64
	PerByte   float64
	PerLookup float64
	PerInsert float64
	PerSort   float64
	PerFlush  float64
	PerBatch  float64 // fixed per-batch overhead of invoking the query
}

// DefaultCostModel returns the coefficients used across the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		PerPacket: 60,
		PerByte:   22,
		PerLookup: 160,
		PerInsert: 540,
		PerSort:   90,
		PerFlush:  170,
		PerBatch:  12000,
	}
}

// Cycles converts operation counts into cycles.
func (c CostModel) Cycles(o Ops) float64 {
	return c.PerBatch +
		c.PerPacket*float64(o.Packets) +
		c.PerByte*float64(o.Bytes) +
		c.PerLookup*float64(o.Lookups) +
		c.PerInsert*float64(o.Inserts) +
		c.PerSort*float64(o.Sorts) +
		c.PerFlush*float64(o.Flushes)
}

// Result is a query's answer for one measurement interval. Concrete
// types are defined per query; accuracy evaluation type-asserts them.
type Result interface{}

// Query is a monitoring application plugged into the system — a black
// box from the load shedder's point of view (§2.1.3). Queries are not
// safe for concurrent use; the monitoring system is single-threaded per
// the CoMo capture-process model.
type Query interface {
	// Name returns the query's Table 2.2 name.
	Name() string
	// Method returns the shedding mechanism the query selected at
	// configuration time (Table 2.2).
	Method() sampling.Method
	// MinRate returns the minimum sampling rate m_q the query tolerates
	// (Table 5.2), the only accuracy information users must provide.
	MinRate() float64
	// Interval returns the measurement interval at which results are
	// flushed.
	Interval() time.Duration
	// Process consumes a (possibly sampled) batch. rate is the sampling
	// rate already applied to the batch, which the query may use to
	// estimate its unsampled output (§2.2). It returns the operations
	// performed.
	Process(b *pkt.Batch, rate float64) Ops
	// Flush ends the current measurement interval, returning the
	// interval's result and the flush operations.
	Flush() (Result, Ops)
	// Error computes the accuracy error in [0, 1] of result got against
	// the reference (lossless) result ref, per §2.2.1.
	Error(got, ref Result) float64
	// Reset discards all state, returning the query to construction
	// time.
	Reset()
}

// ResultRecycler is an optional Query extension for consumers that do
// not retain interval results: FlushInto is Flush reusing the storage
// (maps, slices) of a previous interval's result for the new one. prev
// must be a Result previously returned by this query — after the call
// it must no longer be read — or nil, which makes FlushInto equivalent
// to Flush. The reported values are identical either way; only the
// backing storage differs.
type ResultRecycler interface {
	FlushInto(prev Result) (Result, Ops)
}

// Config carries the tunables shared by query constructors.
type Config struct {
	Interval time.Duration // measurement interval; 1 s if zero
	Seed     uint64        // seed for any internal randomized structure
}

func (c Config) interval() time.Duration {
	if c.Interval == 0 {
		return time.Second
	}
	return c.Interval
}

// methodOverride reports a different shedding method for an existing
// query. It deliberately hides any custom-shedding methods of the
// wrapped query (the interface embedding only promotes Query methods),
// so a Custom-capable query wrapped to Packet or Flow is shed by
// sampling — which is how the Figure 6.1/6.2 method ablation works.
type methodOverride struct {
	Query
	m sampling.Method
}

// Method implements Query.
func (w methodOverride) Method() sampling.Method { return w.m }

// WithMethod returns a view of q that requests shedding method m.
func WithMethod(q Query, m sampling.Method) Query {
	return methodOverride{Query: q, m: m}
}

// StandardSet returns fresh instances of the seven queries used in the
// Chapter 3/4 evaluation: application, counter, flows, high-watermark,
// pattern-search, top-k and trace.
func StandardSet(cfg Config) []Query {
	return []Query{
		NewApplication(cfg),
		NewCounter(cfg),
		NewFlows(cfg),
		NewHighWatermark(cfg),
		NewPatternSearch(cfg, nil),
		NewTopK(cfg, 0),
		NewTraceQuery(cfg),
	}
}

// FullSet returns fresh instances of all ten Table 2.2 queries, the set
// used in the Chapter 5/6 evaluation.
func FullSet(cfg Config) []Query {
	return []Query{
		NewApplication(cfg),
		NewAutofocus(cfg, 0),
		NewCounter(cfg),
		NewFlows(cfg),
		NewHighWatermark(cfg),
		NewP2PDetector(cfg),
		NewPatternSearch(cfg, nil),
		NewSuperSources(cfg, 0),
		NewTopK(cfg, 0),
		NewTraceQuery(cfg),
	}
}
