package loadshed

// sink.go is the streaming result path: a Sink observes a run's records
// as they are produced instead of accumulating them in a RunResult. The
// thesis system is an online monitor that runs for days against live
// links (§2.1); with a sink that discards or aggregates, a System or
// Cluster runs indefinitely in constant memory. System.Run is a thin
// wrapper that streams into slices, so both paths share one run loop.

import (
	"math"
	"slices"
	"sync"
)

// Sink receives a run's records as they are produced. System.Stream and
// Cluster.Stream call it from the run loop:
//
//   - OnQuery fires when a query joins the stream — every initial query
//     before the first bin, then each mid-run Arrival. index is the
//     query's slot in the per-query slices of BinStats and
//     IntervalResults.
//   - OnBin fires after every processed time bin.
//   - OnInterval fires at every measurement-interval flush, including
//     the final partial interval at end of trace.
//   - OnQueryRemove(index int, name string), a method a sink may add,
//     fires when RemoveQuery tombstones a query (queryRemovalSink).
//
// The records and everything reachable from them — the per-query slices
// of BinStats, the Results of an interval and their maps and slices —
// are valid until the call returns: the engine reuses that storage for
// the next bin and interval, which is what makes an indefinite Stream
// allocation-free in steady state. A sink copies the values it wants;
// use Run to keep whole records. Within one stream, calls are
// sequential and ordered, but a Cluster delivers each shard's stream
// from the shard-runner pool, so a sink shared between shards must be
// safe for concurrent use (per-shard sinks need not be).
//
// The bin pipeline (DESIGN.md, "Bin pipeline") does not weaken either contract:
// sinks are always called from the back stage, in bin order, after the
// bin's ring slot has been handed back to the front — BinStats and
// IntervalResults never reference the slot's batch or sketch, so the
// records a sink sees are untouched by the front goroutine.
type Sink interface {
	OnQuery(index int, name string)
	OnBin(b *BinStats)
	OnInterval(iv *IntervalResults)
}

// queryRemovalSink is an optional Sink capability: OnQueryRemove fires
// when RemoveQuery tombstones a query at a measurement-interval
// boundary, after the query's final OnInterval. The slot index stays
// allocated — per-bin slices keep their width, with the removed column
// reading zero rates and nil results for the rest of the run — so a
// sink that tracks per-query state should mark the index inactive, not
// shift its bookkeeping. Sinks that don't implement the interface just
// see the column go quiet.
type queryRemovalSink interface {
	OnQueryRemove(index int, name string)
}

// DiscardSink drops every record: Stream with a DiscardSink runs the
// engine purely for its side effects (probes, custom-shedding audits).
type DiscardSink struct{}

func (DiscardSink) OnQuery(int, string)         {}
func (DiscardSink) OnBin(*BinStats)             {}
func (DiscardSink) OnInterval(*IntervalResults) {}

// SinkFuncs adapts bare functions to a Sink; nil fields are skipped.
type SinkFuncs struct {
	Query    func(index int, name string)
	Bin      func(b *BinStats)
	Interval func(iv *IntervalResults)
}

// OnQuery implements Sink.
func (s SinkFuncs) OnQuery(index int, name string) {
	if s.Query != nil {
		s.Query(index, name)
	}
}

// OnBin implements Sink.
func (s SinkFuncs) OnBin(b *BinStats) {
	if s.Bin != nil {
		s.Bin(b)
	}
}

// OnInterval implements Sink.
func (s SinkFuncs) OnInterval(iv *IntervalResults) {
	if s.Interval != nil {
		s.Interval(iv)
	}
}

// Tee returns a Sink that forwards every record to each sink in order.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) OnQuery(i int, name string) {
	for _, s := range t {
		s.OnQuery(i, name)
	}
}

func (t teeSink) OnBin(b *BinStats) {
	for _, s := range t {
		s.OnBin(b)
	}
}

func (t teeSink) OnInterval(iv *IntervalResults) {
	for _, s := range t {
		s.OnInterval(iv)
	}
}

// OnQueryRemove implements queryRemovalSink, forwarding to the members
// that care.
func (t teeSink) OnQueryRemove(i int, name string) {
	for _, s := range t {
		if rs, ok := s.(queryRemovalSink); ok {
			rs.OnQueryRemove(i, name)
		}
	}
}

// resultSink accumulates the full record — the Run path, and the one
// place records outlive their callback. It copies what the engine
// reuses: the three per-query slices of each bin, and each interval's
// Results, whose delivered slots it then clears so the engine's next
// FlushInto cannot recycle storage the record now owns.
type resultSink struct{ res *RunResult }

func newResultSink() *resultSink {
	return &resultSink{res: &RunResult{}}
}

func (rs *resultSink) OnQuery(_ int, name string) {
	rs.res.Queries = append(rs.res.Queries, name)
}
func (rs *resultSink) OnBin(b *BinStats) {
	c := *b
	c.Rates = slices.Clone(b.Rates)
	c.QueryUsed = slices.Clone(b.QueryUsed)
	c.QueryPred = slices.Clone(b.QueryPred)
	rs.res.Bins = append(rs.res.Bins, c)
}
func (rs *resultSink) OnInterval(iv *IntervalResults) {
	c := *iv
	c.Results = slices.Clone(iv.Results)
	clear(iv.Results)
	rs.res.Intervals = append(rs.res.Intervals, c)
}

// rollingBin is one bin's footprint inside the RollingStats window.
type rollingBin struct {
	wire, drop, admit      int
	used, overhead, shed   float64
	capacity               float64
	globalRate, bufferBins float64
	changeScore            float64
	change                 bool
	rates                  []float64 // per query; reused in place across evictions
}

// RollingStats is a Sink that maintains windowed summaries of a stream
// in memory bounded by the window size, no matter how long the run: the
// constant-memory replacement for RunResult.Bins on long-running
// deployments. Construct with NewRollingStats; read with Snapshot. It is
// safe for one stream to write while other goroutines call Snapshot (an
// admin plane scraping a serving monitor): every method takes the one
// internal lock, uncontended on the run loop.
type RollingStats struct {
	mu     sync.Mutex
	window int

	queries []string
	// active[i] is false once query i was removed (OnQueryRemove); its
	// name and ring columns stay so indices never shift mid-run.
	active []bool

	ring   []rollingBin
	head   int // next ring slot to overwrite
	filled int

	bins, intervals               int
	wirePkts, dropPkts, admitPkts int64
	exportCycles                  float64
	changes                       int64
	lastChangeBin                 int64 // lifetime bin index of the latest change verdict, -1 when none
}

// NewRollingStats returns a rolling aggregator over the last window
// bins (at the thesis' 100 ms bins, 600 covers a minute). window <= 0
// selects 600.
func NewRollingStats(window int) *RollingStats {
	if window <= 0 {
		window = 600
	}
	return &RollingStats{window: window, ring: make([]rollingBin, window), lastChangeBin: -1}
}

// OnQuery implements Sink.
func (r *RollingStats) OnQuery(_ int, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries = append(r.queries, name)
	r.active = append(r.active, true)
}

// OnQueryRemove implements queryRemovalSink: the slot is marked
// inactive but keeps its index, matching the engine's tombstoning.
func (r *RollingStats) OnQueryRemove(i int, _ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= 0 && i < len(r.active) {
		r.active[i] = false
	}
}

// OnBin implements Sink. It copies the scalars and per-query rates it
// aggregates into the ring and retains nothing else from the record.
func (r *RollingStats) OnBin(b *BinStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := &r.ring[r.head]
	slot.wire, slot.drop, slot.admit = b.WirePkts, b.DropPkts, b.AdmitPkts
	slot.used, slot.overhead, slot.shed = b.Used, b.Overhead, b.Shed
	slot.capacity = b.Capacity
	slot.globalRate, slot.bufferBins = b.GlobalRate, b.BufferBins
	slot.changeScore, slot.change = b.ChangeScore, b.Change
	slot.rates = append(slot.rates[:0], b.Rates...)
	r.head = (r.head + 1) % r.window
	if r.filled < r.window {
		r.filled++
	}
	if b.Change {
		r.changes++
		r.lastChangeBin = int64(r.bins)
	}
	r.bins++
	r.wirePkts += int64(b.WirePkts)
	r.dropPkts += int64(b.DropPkts)
	r.admitPkts += int64(b.AdmitPkts)
}

// OnInterval implements Sink. Interval results themselves are the
// queries' business (they already summarize an interval); the rolling
// view only counts them and the export cost.
func (r *RollingStats) OnInterval(iv *IntervalResults) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intervals++
	r.exportCycles += iv.ExportCycles
}

// RollingSnapshot is a point-in-time summary of a stream: lifetime
// totals plus means over the last WindowBins bins.
type RollingSnapshot struct {
	// Lifetime counters.
	Bins      int
	Intervals int
	Queries   []string
	// Active is index-aligned with Queries: false marks a query removed
	// by RemoveQuery (its MeanRates entry decays to 0 as its bins leave
	// the window).
	Active                        []bool
	WirePkts, DropPkts, AdmitPkts int64
	ExportCycles                  float64

	// WindowBins is how many bins the windowed fields cover — the
	// configured window, or fewer early in a run.
	WindowBins int

	// Windowed traffic and loss.
	PktsPerBin float64 // offered load
	DropFrac   float64 // uncontrolled capture drops / offered
	// UnsampledFrac is the fraction of admitted packets not processed
	// at the applied global rate — the online proxy for accuracy error
	// (the true error of §2.2.1 needs a lossless reference run, which
	// an indefinite stream does not have).
	UnsampledFrac float64

	// Windowed controller state.
	MeanGlobalRate                   float64
	MeanRates                        []float64 // per query, averaged over the bins it existed
	MeanDelay                        float64   // capture-buffer occupancy, in bins
	MaxDelay                         float64
	MeanUsed, MeanOverhead, MeanShed float64 // cycles/bin
	// MeanUtil is (used+overhead+shed)/capacity averaged over the
	// finite-capacity bins of the window; 0 when capacity is unlimited.
	MeanUtil float64

	// Change detection (all zero / -1 unless the engine runs with
	// Config.ChangeDetection).
	ChangesTotal    int64   // lifetime change verdicts
	LastChangeBin   int64   // lifetime bin index of the latest verdict, -1 when none
	WindowChanges   int     // verdicts inside the window
	MeanChangeScore float64 // detector score averaged over the window
}

// Snapshot summarizes the stream so far. It scans the window (not the
// history), so it is cheap enough to call every reporting tick.
func (r *RollingStats) Snapshot() RollingSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RollingSnapshot{
		Bins:          r.bins,
		Intervals:     r.intervals,
		Queries:       append([]string(nil), r.queries...),
		Active:        append([]bool(nil), r.active...),
		WirePkts:      r.wirePkts,
		DropPkts:      r.dropPkts,
		AdmitPkts:     r.admitPkts,
		ExportCycles:  r.exportCycles,
		WindowBins:    r.filled,
		ChangesTotal:  r.changes,
		LastChangeBin: r.lastChangeBin,
	}
	// Index-aligned with Queries from the first announcement on: readers
	// (lsd's GET /queries) index it before any bin has landed.
	s.MeanRates = make([]float64, len(r.queries))
	if r.filled == 0 {
		return s
	}
	var wire, drop, admit int
	var unsampled float64
	var utilSum float64
	utilBins := 0
	rateSum := make([]float64, len(r.queries))
	rateN := make([]int, len(r.queries))
	for i := 0; i < r.filled; i++ {
		b := &r.ring[(r.head-1-i+2*r.window)%r.window]
		wire += b.wire
		drop += b.drop
		admit += b.admit
		unsampled += (1 - b.globalRate) * float64(b.admit)
		s.MeanGlobalRate += b.globalRate
		s.MeanDelay += b.bufferBins
		if b.bufferBins > s.MaxDelay {
			s.MaxDelay = b.bufferBins
		}
		s.MeanUsed += b.used
		s.MeanOverhead += b.overhead
		s.MeanShed += b.shed
		s.MeanChangeScore += b.changeScore
		if b.change {
			s.WindowChanges++
		}
		if !math.IsInf(b.capacity, 1) && b.capacity > 0 {
			utilSum += (b.used + b.overhead + b.shed) / b.capacity
			utilBins++
		}
		for q, rate := range b.rates {
			rateSum[q] += rate
			rateN[q]++
		}
	}
	n := float64(r.filled)
	s.PktsPerBin = float64(wire) / n
	if wire > 0 {
		s.DropFrac = float64(drop) / float64(wire)
	}
	if admit > 0 {
		s.UnsampledFrac = unsampled / float64(admit)
	}
	s.MeanGlobalRate /= n
	s.MeanDelay /= n
	s.MeanUsed /= n
	s.MeanOverhead /= n
	s.MeanShed /= n
	s.MeanChangeScore /= n
	if utilBins > 0 {
		s.MeanUtil = utilSum / float64(utilBins)
	}
	for q := range rateSum {
		if rateN[q] > 0 {
			s.MeanRates[q] = rateSum[q] / float64(rateN[q])
		}
	}
	return s
}
