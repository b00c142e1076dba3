// Package loadshed is the public monitoring engine of this reproduction
// of "Load Shedding in Network Monitoring Applications" (Barlet-Ros et
// al., USENIX ATC 2007): the CoMo-like batch pipeline that captures
// traffic, extracts features, predicts per-query cost, decides and
// applies load shedding, runs the queries on a bounded worker pool, and
// feeds measurements back into the controller.
//
// Each captured batch flows through six explicit stages (see
// DESIGN.md, "Pipeline stages", and stages.go): admit → platformOverhead →
// extractPredict → decideShedding → execute → feedback, with a
// binContext threading state between them. The execute stage fans the
// queries out over the goroutines Config.Workers grants it; runs are
// bit-identical for any worker count because every query owns its RNG
// streams and results merge in index order.
//
// It implements the four schemes the thesis evaluates against each
// other (§4.5.1, §5.5.3):
//
//   - Predictive: Chapter 4's Algorithm 1, optionally with a Chapter 5
//     per-query strategy (mmfs_cpu / mmfs_pkt / eq_srates) and Chapter
//     6 custom shedding.
//   - Reactive: sampling driven by the previous batch's cost (Eq. 4.1,
//     SEDA-style).
//   - Original: unmodified CoMo — no sampling, packets drop when the
//     capture buffer fills.
//   - NoShed: process everything; with infinite capacity this produces
//     the reference (ground-truth) run.
//
// The paper measures cycles with the TSC; here query cost comes from
// the instrumented cost model (see queries.CostModel and DESIGN.md),
// with optional multiplicative measurement noise and rare spikes that
// stand in for cache misses and context switches (§3.2.4).
package loadshed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/detect"
	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Scheme selects the load shedding behaviour of a run.
type Scheme int

// The four schemes of the evaluation.
const (
	Predictive Scheme = iota
	Reactive
	Original
	NoShed
)

// String returns the scheme name used in figures.
func (s Scheme) String() string {
	switch s {
	case Predictive:
		return "predictive"
	case Reactive:
		return "reactive"
	case Original:
		return "original"
	case NoShed:
		return "no_lshed"
	default:
		return "unknown"
	}
}

// Cost coefficients of the platform itself (the "como_cycles" of
// Algorithm 1). Values are cycles. The prediction subsystem's prices
// sit beside the counters they price: features.CostPerOp for
// extraction, predict.FCBFCostPerOp and predict.FitCostPerOp for the
// MLR refit.
const (
	comoPerBin       = 1e5   // fixed platform work per batch
	comoPerPkt       = 40    // capture/filter cost per admitted packet
	sampleCostPerPkt = 10    // sampling decision per packet
	diskSpikeProb    = 0.004 // rare platform spikes (disk, kernel)
	diskSpikeFactor  = 20.0  // spike size, × comoPerBin
	costSpikeFactor  = 2.5   // a spiked query measurement, × its true cost (Config.SpikeProb)
	reactiveMinRate  = 0.01  // α of Eq. 4.1: the reactive scheme's rate floor
)

// costModel converts the operations a query counts into cycles.
var costModel = queries.DefaultCostModel()

// Config parameterizes a run.
type Config struct {
	Scheme   Scheme
	Capacity float64        // cycles per time bin; <= 0 or +Inf means unlimited
	Strategy sched.Strategy // per-query strategy; nil = single global rate (Ch. 4)
	Seed     uint64

	// Predictor builds one query's cost predictor (Chapter 3). It is
	// called once per query — at construction, on AddQuery and for each
	// Arrival — so it must return a fresh instance every call. nil
	// selects MLR+FCBF at predict.DefaultHistory and
	// predict.DefaultThreshold. Snapshot and Restore support the mlr,
	// slr and ewma predictors.
	Predictor func() predict.Predictor

	NoiseSigma float64 // lognormal sigma of cost measurement noise (default 0.01; negative = none)
	SpikeProb  float64 // probability of a cost spike (×2.5) per query-bin (default 0)

	// Workers bounds the engine's total concurrency. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs the strictly sequential bin loop
	// with every query inline on the run goroutine. Workers >= 2
	// additionally enables the two-deep bin pipeline: one front
	// goroutine prepares the next bin (index and sketch) while the
	// execute pool, the run goroutine included, takes the other
	// Workers-1 (DESIGN.md, "Bin pipeline"). Results are bit-identical
	// for any value: a bin's preparation is a pure function of its
	// batch, each query owns its RNG streams, and per-bin results merge
	// in query-index order.
	Workers int

	BufferBins float64 // capture buffer size in bins of traffic (default 50 ≈ 5 s, a 256 MB DAG buffer at evaluation rates; Ch. 5's no-shedding emulation sets 2 ≈ 200 ms)

	CustomShedding bool // enable the Chapter 6 custom-shedding protocol (default enforcement policy)

	// Arrivals registers queries that join the system mid-run (§6.3.3):
	// each Make is invoked when the run reaches AtBin. Early interval
	// results of late queries are nil.
	Arrivals []Arrival

	// ChangeDetection enables the online drift detector (internal/
	// detect, at its package-default thresholds): every bin it observes
	// the extracted feature vector and the aggregate prediction
	// residual, and on a change verdict every MLR predictor truncates
	// its history to the newest rows (NotifyChange) so the model refits
	// on the new regime instead of averaging both. Thresholds and
	// response are constants, not options: they are the one operating
	// point the anomaly catalog was measured at (DESIGN.md section 3),
	// and a checkpointed shard resumes under them by construction.
	// Predictive scheme only. Default off — and when off, runs are
	// bit-identical to an engine built without the detector at all
	// (TestConformance, row detector-never-fires).
	ChangeDetection bool
}

// Arrival schedules a query to join a running system.
type Arrival struct {
	AtBin int
	Make  func() queries.Query
}

func (c Config) withDefaults() Config {
	if c.Predictor == nil {
		c.Predictor = func() predict.Predictor {
			return predict.NewMLR(predict.DefaultHistory, predict.DefaultThreshold)
		}
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.01
	}
	if c.BufferBins == 0 {
		c.BufferBins = 50
	}
	if c.Capacity <= 0 {
		c.Capacity = math.Inf(1)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// BinStats records one time bin of a run — the raw material of the
// Chapter 4 and 6 time-series figures.
type BinStats struct {
	Start time.Duration

	// Capacity is the cycle budget the bin ran under (+Inf when
	// unlimited). Under a Cluster coordinator it varies bin to bin.
	Capacity float64

	WirePkts  int // packets on the wire this bin
	DropPkts  int // uncontrolled capture-buffer ("DAG") drops
	AdmitPkts int // packets entering the system
	WireBytes int

	Predicted float64 // Σ per-query predicted cycles at full rate
	Alloc     float64 // Σ per-query predicted cycles at applied rates
	Used      float64 // Σ per-query measured cycles
	Overhead  float64 // platform + prediction subsystem cycles
	Shed      float64 // sampling + re-extraction cycles
	Avail     float64 // the availability used for the decision

	GlobalRate float64   // min across queries (1 when not shedding)
	Rates      []float64 // per-query applied rates
	QueryUsed  []float64 // per-query measured cycles
	QueryPred  []float64 // per-query predictions at full rate

	BufferBins float64 // buffer occupancy, in bins of delay

	// Change detection (zero unless Config.ChangeDetection): the
	// detector's combined score for this bin (1.0 = firing threshold)
	// and whether a change verdict fired here.
	ChangeScore float64
	Change      bool
}

// IntervalResults records every query's flushed result for one
// measurement interval.
type IntervalResults struct {
	Index   int
	Results []Result // index-aligned with RunResult.Queries
	// ExportCycles is the cost of flushing interval state to the export
	// process. CoMo handles it outside the capture loop (§2.1.2), so it
	// is reported but not charged against the real-time bin budget.
	ExportCycles float64
}

// RunResult is everything a run produced.
type RunResult struct {
	Scheme    Scheme
	Queries   []string
	Bins      []BinStats
	Intervals []IntervalResults
}

// runQuery is the per-query runtime state. Everything here is owned by
// whichever worker runs the query within a bin, which is what lets the
// execute stage fan out; the one thing shared between queries, iv, is
// written only by the shed step, before the fan-out.
type runQuery struct {
	q     queries.Query
	pred  predict.Predictor
	mlr   *predict.MLR          // pred, when it is an MLR
	fsamp *sampling.FlowSampler // only for a query whose Method is Flow
	psamp *sampling.PacketSampler
	noise *hash.XorShift // measurement-noise stream, private per query
	shed  *custom.State  // non-nil when the query supports custom shedding

	// The shed step's output for the bin: the interval state the query
	// shares (nil until its first bin of an interval) and which sketch it
	// folded, the rate the query is told was applied, and fv, the scratch
	// its observed feature vector is written to.
	iv      *ivState
	fold    foldKind
	effRate float64
	fv      features.Vector

	// sel is the query's sampling scratch: the indices of the admitted
	// packets its sampler keeps this bin, which qbatch reads through
	// (the shed step writes it, and it is dead once Process returns).
	sel []int32
	// qbatch is the batch view handed to Process. It lives on the
	// runQuery because &qbatch escapes through the Query interface;
	// keeping it here makes that escape a one-time cost instead of a
	// per-bin heap allocation.
	qbatch pkt.Batch
}

// System runs monitoring experiments. Construct with New, call Run.
type System struct {
	cfg Config
	qs  []*runQuery
	gov *core.Governor

	globalExt *features.Extractor
	// refit is the bin's shared MLR refit: extractPredict opens a round
	// per bin and predicts every MLR query through it.
	refit predict.Refit
	// The shared shed stream (§5.5.4): shedSamp selects it, shedSketch
	// holds its sketch, inserted from the bin's own per-flow hash
	// columns, and shedOps counts the hash+insert operations charged for
	// it.
	shedSamp   *sampling.PacketSampler
	shedSketch *features.Sketch
	shedOps    int64
	noise      *hash.XorShift
	manager    *custom.Manager
	// det is the online change detector, non-nil only when
	// Config.ChangeDetection is set under the Predictive scheme; the
	// detect stage (stages.go) feeds it between execute and feedback.
	det *detect.Detector

	interval      time.Duration
	reactiveRate  float64
	reactiveDelay float64 // previous bin's overshoot (Eq. 4.1's delay)
	lastConsumed  float64

	// Per-bin scratch, written only by the pipeline goroutine between
	// worker-pool drains: the reused binContext, the predictive demand
	// vector, the shed-stream selection and the shed step's draw queue.
	// execFn is the worker-pool closure over the reused context, built
	// once instead of per bin.
	bc        binContext
	execFn    func(int)
	demandBuf []sched.Demand
	schedWs   sched.Workspace
	shedIdx   []int32
	draws     []draw
	// ivs are the interval states in use, one per distinct fold history
	// this interval, taken in order from ivPool, which holds one per
	// query slot.
	ivs, ivPool []*ivState
	// prevIvr is the interval result storage, handed back to each
	// recycling query at the next flush; index-aligned with qs.
	prevIvr []queries.Result

	// execPool is the execute stage's worker pool — every goroutine of
	// Config.Workers but the pipeline's front one, the run goroutine
	// included — per-run like the front goroutine: newRunner spawns it,
	// finish releases it, an idle System holds no goroutines. nil (an
	// execute stage of one goroutine) runs the fan-out inline.
	execPool *staticPool
	// pipe holds the ring slots every bin is prepared in and the
	// pipeline's channels, built lazily on the first run and reused
	// after; see pipeline.go.
	pipe *pipeline

	// Dynamic query registry (AddQuery/RemoveQuery). Callers queue ops
	// under regMu from any goroutine; the run goroutine drains the queue
	// at measurement-interval boundaries (and at run start), which is the
	// quiesce point where no bin is in flight, every flush has been
	// delivered and every extractor has just rotated. regNames counts the
	// active instances of each query name — initial queries, applied and
	// queued adds, Arrivals — so AddQuery can refuse duplicates and
	// RemoveQuery unknown names without touching run-goroutine state.
	regMu    sync.Mutex
	regOps   []registryOp
	regNames map[string]int
}

// registryOp is one queued registry mutation: an add (add != nil) or a
// removal by name.
type registryOp struct {
	add    queries.Query
	remove string
}

// New builds a system around the given fresh query instances. All
// queries must share the same measurement interval.
func New(cfg Config, qs []queries.Query) *System {
	cfg = cfg.withDefaults()
	if len(qs) == 0 {
		panic("system: no queries")
	}
	s := &System{
		cfg:          cfg,
		gov:          newGovernor(cfg),
		globalExt:    features.NewExtractor(cfg.Seed + 0xfea7),
		shedSamp:     sampling.NewPacketSampler(cfg.Seed + 0x5a3d),
		shedSketch:   features.NewSketch(),
		noise:        hash.NewXorShift(cfg.Seed + 0x4015e),
		interval:     qs[0].Interval(),
		reactiveRate: 1,
	}
	if cfg.CustomShedding {
		s.manager = custom.NewManager()
	}
	if cfg.ChangeDetection && cfg.Scheme == Predictive {
		s.det = detect.New(detect.Config{}, features.NumFeatures)
	}
	for _, q := range qs {
		s.addQuery(q)
		s.trackName(q.Name(), +1)
	}
	return s
}

// trackName adjusts the registry's active-instance count for a query
// name. addQuery itself does not touch the count: registry adds are
// counted when queued (so a duplicate AddQuery fails immediately), while
// construction and Arrivals count here at wiring time.
func (s *System) trackName(name string, delta int) {
	s.regMu.Lock()
	if s.regNames == nil {
		s.regNames = make(map[string]int)
	}
	s.regNames[name] += delta
	s.regMu.Unlock()
}

// AddQuery queues a fresh query instance to join the stream at the next
// measurement-interval boundary (or at the start of the next run if the
// system is idle). It is safe to call from any goroutine — the admin
// plane of a serving deployment calls it from HTTP handlers — and
// returns an error, never panics, because the input is operator data:
// a duplicate active name or a mismatched measurement interval is
// refused. The join point makes live registration deterministic: the
// query sees exactly the bins a restart with it registered from that
// interval would have shown it (TestConformance, row live-add).
func (s *System) AddQuery(q queries.Query) error {
	if q == nil {
		return errors.New("loadshed: AddQuery: nil query")
	}
	if q.Interval() != s.interval {
		return fmt.Errorf("loadshed: query %s interval %v differs from system interval %v", q.Name(), q.Interval(), s.interval)
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.regNames == nil {
		s.regNames = make(map[string]int)
	}
	if s.regNames[q.Name()] > 0 {
		return fmt.Errorf("loadshed: query %q already registered", q.Name())
	}
	s.regNames[q.Name()]++
	s.regOps = append(s.regOps, registryOp{add: q})
	return nil
}

// RemoveQuery queues the removal of the active query with the given
// name, applied at the next measurement-interval boundary — after its
// final flush has been delivered. Mid-run the slot is tombstoned rather
// than compacted, so sink indices stay aligned: the removed column
// reports zero rates and nil results until the next run starts and the
// slot is reclaimed. Safe to call from any goroutine.
func (s *System) RemoveQuery(name string) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.regNames[name] <= 0 {
		return fmt.Errorf("loadshed: no active query %q", name)
	}
	s.regNames[name]--
	s.regOps = append(s.regOps, registryOp{remove: name})
	return nil
}

// applyRegistry drains the queued registry ops, in queue order. It runs
// only on the run goroutine at quiesce points — interval boundaries
// (after startInterval, mirroring where Arrivals join) and run start —
// so an added query's first bin opens a fresh interval and a removed
// query's last interval has already flushed. sink receives OnQuery for
// each add and, if it implements queryRemovalSink, OnQueryRemove for
// each tombstoned slot.
func (s *System) applyRegistry(sink Sink) {
	s.regMu.Lock()
	ops := s.regOps
	s.regOps = nil
	s.regMu.Unlock()
	for _, op := range ops {
		if op.add != nil {
			s.addQuery(op.add)
			sink.OnQuery(len(s.qs)-1, op.add.Name())
			continue
		}
		for i, rq := range s.qs {
			if rq != nil && rq.q.Name() == op.remove {
				s.qs[i] = nil
				if rs, ok := sink.(queryRemovalSink); ok {
					rs.OnQueryRemove(i, op.remove)
				}
				break
			}
		}
	}
}

// compactQueries reclaims tombstoned slots between runs. Mid-run a
// removal must leave a nil slot so sink indices stay aligned; at run
// start no sink has seen an index yet and every per-query seed was
// fixed at addQuery time, so the survivors slide down keeping their RNG
// streams, predictors and recycled result storage (prevIvr compacts in
// lockstep — each surviving query keeps its own storage).
func (s *System) compactQueries() {
	n := 0
	for i, rq := range s.qs {
		if rq == nil {
			continue
		}
		if i < len(s.prevIvr) {
			s.prevIvr[n] = s.prevIvr[i]
		} else if n < len(s.prevIvr) {
			// This query never had recycled storage; don't hand it a
			// removed query's.
			s.prevIvr[n] = nil
		}
		s.qs[n] = rq
		n++
	}
	if n == len(s.qs) {
		return
	}
	clear(s.qs[n:])
	s.qs = s.qs[:n]
	if len(s.prevIvr) > n {
		clear(s.prevIvr[n:])
		s.prevIvr = s.prevIvr[:n]
	}
}

// addQuery wires a query into the running system (used at construction
// and by mid-run arrivals). A query whose measurement interval differs
// from the system's would silently misalign every flush, so the check
// New applies to the initial set also guards mid-run Arrivals.
func (s *System) addQuery(q queries.Query) {
	if q.Interval() != s.interval {
		panic(fmt.Sprintf("system: query %s interval %v differs from %v", q.Name(), q.Interval(), s.interval))
	}
	i := len(s.qs)
	rq := &runQuery{
		q:     q,
		psamp: sampling.NewPacketSampler(s.cfg.Seed + uint64(i)*17 + 3),
		noise: hash.NewXorShift(s.cfg.Seed + uint64(i)*0x2b5ad + 0x6e01),
		pred:  s.cfg.Predictor(),
	}
	if q.Method() == sampling.Flow {
		rq.fsamp = sampling.NewFlowSampler(s.cfg.Seed + uint64(i)*31 + 7)
	}
	rq.mlr, _ = rq.pred.(*predict.MLR)
	if s.manager != nil {
		if sh, ok := q.(custom.Shedder); ok && q.Method() == sampling.Custom {
			rq.shed = s.manager.Register(q.Name(), sh, q.MinRate())
		}
	}
	s.qs = append(s.qs, rq)
	s.ivPool = append(s.ivPool, &ivState{Interval: features.NewInterval()})
}

func newGovernor(cfg Config) *core.Governor {
	g := core.NewGovernor(cfg.Capacity)
	applyRTTCap(g, cfg.BufferBins, cfg.Capacity)
	return g
}

// applyRTTCap bounds the discovered delay allowance by a fraction of
// the capture buffer: §4.1 resets rtthresh when buffer occupancy
// exceeds a predefined value, well before packets drop. Construction
// and mid-run rebudgeting share it so the bound cannot drift.
func applyRTTCap(g *core.Governor, bufferBins, capacity float64) {
	if !math.IsInf(capacity, 1) {
		g.SetRTTCap(math.Min(2*capacity, 0.4*bufferBins*capacity))
	}
}

// setCapacity rebudgets the system mid-run: the Cluster coordinator
// calls it every bin to move cycles between shards. Unlike touching the
// governor directly it re-derives the buffer-bounded delay allowance,
// so a shard whose budget shrinks cannot keep an rtthresh discovered
// under a larger one and walk itself into the drop region.
func (s *System) setCapacity(c float64) {
	s.gov.SetCapacity(c)
	applyRTTCap(s.gov, s.cfg.BufferBins, c)
}

// runner drives a System through a trace one batch at a time, delivering
// every record to a Sink. Stream wraps it for single-link use; the
// Cluster steps many runners in lockstep so the budget coordinator can
// rebalance capacity between bins. The runner itself holds only the
// last bin's record, in storage the next bin reuses, so memory stays
// constant for any trace length — Run is what accumulates.
type runner struct {
	s    *System
	src  trace.Source
	sink Sink
	pipe *pipeline // non-nil: the front stage owns src and fills the slots (pipeline.go)
	slot *binSlot  // the sequential loop's slot, filled inline; nil under the pipeline
	// recycler is src when it can refill a finished batch's storage (a
	// live listener), nil for every replay source.
	recycler trace.Recycler
	// done, when non-nil, cancels the run: step returns false at the
	// next bin boundary once it is closed. nil (the Stream/Run path)
	// never fires.
	done <-chan struct{}
	// boundary, when non-nil, runs at every measurement-interval
	// boundary before the closing interval flushes — the quiesce point
	// where System.Snapshot is valid (nothing interval-scoped survives
	// the boundary, and extractors have not yet rotated). Returning
	// false stops the run before the flush: finish() then performs the
	// single final flush, so a drained run is bin-for-bin identical to
	// a run over the same prefix of the trace. Node uses the hook for
	// periodic checkpoints and coordinator-ordered drains.
	boundary        func(bin, interval int) bool
	binsPerInterval int
	curInterval     int
	bin             int
	lastBin         BinStats        // most recent bin, read by the cluster coordinator
	lastIvr         IntervalResults // most recent flush; here because &lastIvr escapes to the sink
}

// newRunner resets the source and queries, announces the initial query
// set to the sink and opens the first measurement interval. A nil sink
// discards.
func (s *System) newRunner(src trace.Source, sink Sink) *runner {
	src.Reset()
	if sink == nil {
		sink = DiscardSink{}
	}
	// Quiesce point: apply registry ops queued while idle (silently —
	// the announcement loop below covers every slot) and reclaim
	// tombstones left by the previous run's removals.
	s.applyRegistry(DiscardSink{})
	s.compactQueries()
	for i, rq := range s.qs {
		rq.q.Reset()
		sink.OnQuery(i, rq.q.Name())
	}
	binsPerInterval := int(s.interval / src.TimeBin())
	if binsPerInterval < 1 {
		binsPerInterval = 1
	}
	s.startInterval()
	r := &runner{s: s, src: src, sink: sink, binsPerInterval: binsPerInterval}
	r.recycler, _ = src.(trace.Recycler)
	p := s.ensurePipeline()
	if !s.cfg.pipelined() {
		r.slot = &p.slots[0]
		return r
	}
	// The front goroutine is one of Workers; the execute pool's helpers
	// and the run goroutine are the rest.
	s.execPool = newStaticPool(s.cfg.Workers - 2)
	r.pipe = p
	p.begin(src)
	return r
}

// step processes the next batch — arrivals, interval boundary, the
// six-stage pipeline — and reports false at end of trace, on
// cancellation or when a boundary hook stopped the run. Under the bin
// pipeline the prepared slot comes from the front stage's ready ring;
// otherwise this goroutine fills its own. Everything else — flushes,
// arrivals, the stage chain, sink delivery — runs in strict bin order
// on this goroutine either way.
func (r *runner) step() bool {
	// Cancellation is polled at the bin boundary. A cancelled pipelined
	// run leaves its slots wherever they are: finish() tears the front
	// stage down via the pipeline's quit channel.
	select {
	case <-r.done:
		return false
	default:
	}
	s := r.s
	slot := r.slot
	if r.pipe != nil {
		slot = <-r.pipe.ready
	} else {
		slot.fill(r.src.NextBatch())
	}
	// A run drained at the boundary read its batch from the source but
	// does not process it — the checkpoint records the bin, and the
	// resumed run re-reads it from a repositioned source (ResumeSource).
	ok := slot.ok && r.advance()
	if ok {
		r.lastBin = s.step(r.bin, slot)
	}
	if slot.ok && r.recycler != nil {
		// Nothing reads the batch's packets or payloads past this point,
		// so a source that reuses storage may have it back.
		r.recycler.Recycle(slot.batch)
	}
	if r.pipe != nil {
		// Likewise the slot: BinStats carries no references into the
		// batch or sketch, so the front may refill it now.
		r.pipe.free <- slot
	}
	if !ok {
		return false
	}
	r.sink.OnBin(&r.lastBin)
	r.bin++
	return true
}

// advance handles the work that precedes a bin's stage chain. It
// reports false when a boundary hook stopped the run.
func (r *runner) advance() bool {
	s := r.s
	// Measurement interval boundary: flush results, rotate hashes. This
	// must happen before mid-run arrivals join — a query arriving exactly
	// at a boundary bin belongs to the interval that starts with its
	// first bin, not to the closing one (where it would be flushed with a
	// spurious empty report it never saw traffic for).
	if iv := r.bin / r.binsPerInterval; iv != r.curInterval {
		if r.boundary != nil && !r.boundary(r.bin, iv) {
			return false
		}
		r.lastIvr = s.flush(r.curInterval)
		r.sink.OnInterval(&r.lastIvr)
		r.curInterval = iv
		s.startInterval()
		// Quiesce point: registry ops join/leave here, before the
		// config's scripted Arrivals, so a live-added query's first bin
		// is the first bin of a fresh interval — the precondition of
		// the restart-equivalence oracle.
		s.applyRegistry(r.sink)
	}
	for _, a := range s.cfg.Arrivals {
		if a.AtBin == r.bin {
			q := a.Make()
			s.addQuery(q)
			s.trackName(q.Name(), +1)
			r.sink.OnQuery(len(s.qs)-1, q.Name())
		}
	}
	return true
}

// finish flushes the last open interval into the sink and releases the
// run's pool goroutines.
func (r *runner) finish() {
	if r.pipe != nil {
		r.pipe.stop()
	}
	r.s.execPool.close()
	r.s.execPool = nil
	r.lastIvr = r.s.flush(r.curInterval)
	r.sink.OnInterval(&r.lastIvr)
}

// Stream replays src through the system, delivering every BinStats and
// IntervalResults to sink as it is produced, in storage the next bin
// and interval reuse (see Sink). Unlike Run it accumulates nothing: with
// a bounded sink (RollingStats, DiscardSink) a System runs indefinitely
// — an unbounded source included — in constant memory and, once warm,
// without allocating. A nil sink discards all records.
func (s *System) Stream(src trace.Source, sink Sink) {
	s.StreamContext(context.Background(), src, sink)
}

// StreamContext is Stream with cancellation: when ctx is cancelled the
// run stops at the next bin boundary — the bin in flight completes, the
// open measurement interval flushes to the sink, and every pipeline and
// worker goroutine is torn down before StreamContext returns (no leaks;
// see TestStreamContextCancelReleasesGoroutines). It returns ctx.Err()
// after a cancellation and nil after a natural end of trace.
//
// Cancellation is polled between bins, so a source whose NextBatch
// blocks indefinitely (a live listener on a silent link) must also be
// closed to unblock it; cmd/lsd's serve mode wires that up with
// context.AfterFunc.
func (s *System) StreamContext(ctx context.Context, src trace.Source, sink Sink) error {
	r := s.newRunner(src, sink)
	r.done = ctx.Done()
	for r.step() {
	}
	r.finish()
	return ctx.Err()
}

// Run replays src through the system and returns the full record. It is
// Stream into a collector that copies every bin and keeps every
// interval's results — the one way to retain records — which is what
// the accuracy comparisons of the experiments need, and what a
// long-running deployment must avoid (use Stream there).
func (s *System) Run(src trace.Source) *RunResult {
	rs := newResultSink(s.cfg.Scheme)
	s.Stream(src, rs)
	return rs.res
}

// RunContext is Run with cancellation: the returned record covers every
// bin processed before ctx fired (final partial interval included), and
// err is ctx.Err() if the run was cut short.
func (s *System) RunContext(ctx context.Context, src trace.Source) (*RunResult, error) {
	rs := newResultSink(s.cfg.Scheme)
	err := s.StreamContext(ctx, src, rs)
	return rs.res, err
}

// CustomStates exposes the custom-shedding audit state (nil when custom
// shedding is disabled).
func (s *System) CustomStates() []*custom.State {
	if s.manager == nil {
		return nil
	}
	return s.manager.States()
}

func (s *System) startInterval() {
	s.globalExt.StartInterval()
	s.ivs = s.ivs[:0]
	for _, rq := range s.qs {
		if rq == nil { // tombstoned by RemoveQuery
			continue
		}
		rq.iv = nil
		if rq.fsamp != nil {
			rq.fsamp.StartInterval()
		}
	}
}

// flush ends a measurement interval: every query reports. Flush work
// happens in CoMo's export process, outside the capture loop's budget,
// so its cost is recorded for reporting but not charged to a bin.
//
// The previous interval's results are dead by now (a Sink's records are
// valid only during the call), so the Results slice is reused and each
// recycling query gets its previous result's storage back via
// FlushInto. Run's collector takes the results it keeps out of prevIvr,
// which makes the next FlushInto allocate as Flush does.
func (s *System) flush(idx int) IntervalResults {
	nq := len(s.qs)
	for len(s.prevIvr) < nq {
		s.prevIvr = append(s.prevIvr, nil)
	}
	out := IntervalResults{Index: idx, Results: s.prevIvr[:nq]}
	for i, rq := range s.qs {
		if rq == nil {
			// Tombstoned slot: the removed query's last results would
			// otherwise stay visible forever.
			out.Results[i] = nil
			continue
		}
		var r queries.Result
		var ops queries.Ops
		if rec, ok := rq.q.(queries.ResultRecycler); ok {
			r, ops = rec.FlushInto(out.Results[i])
		} else {
			r, ops = rq.q.Flush()
		}
		out.Results[i] = r
		out.ExportCycles += costModel.Cycles(ops)
	}
	return out
}
