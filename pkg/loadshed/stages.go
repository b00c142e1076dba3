package loadshed

import (
	"math"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/sampling"
	"repro/internal/sched"
)

// coldStartRate is the sampling rate applied before the predictor has
// any history at all.
const coldStartRate = 0.05

// binContext threads one batch's state through the pipeline stages. A
// fresh context is built per bin by newBinContext; each stage reads the
// fields of the stages before it and fills in its own. The final
// per-bin record accumulates in Stats.
type binContext struct {
	// Bin is the batch's index in the run.
	Bin int
	// Wire is the batch as captured on the wire, before admission.
	Wire *pkt.Batch
	// Admitted is the traffic that survived the capture buffer (admit).
	Admitted pkt.Batch
	// Stats is the per-bin record under construction.
	Stats BinStats

	// Controller inputs resolved at construction.
	capacity  float64
	unlimited bool

	// Stage outputs.
	bufferLoss bool            // admit: §4.1 soft buffer-occupancy signal
	overhead   float64         // platformOverhead + extractPredict cycles
	fv         features.Vector // extractPredict: full-stream features
	// sketch is the bin slot's sketch of the wire batch, which
	// extractPredict truncates to the admitted batch (predictive runs
	// only). The shed step selects from it and full-rate queries' states
	// fold it, so nothing re-hashes a packet after the slot's fill.
	sketch     *features.Sketch
	rates      []float64    // decideShedding: per-query sampling rates
	shedCycles float64      // execute: sampling + re-extraction cycles
	exec       []execResult // execute: per-query slots, merged in index order
}

// execResult is one query's contribution to the bin, written by exactly
// one worker and merged deterministically after the pool drains.
type execResult struct {
	used  float64 // measured query cycles
	alloc float64 // predicted cycles × applied rate
}

// newBinContext starts the pipeline for one bin from its filled slot
// (binSlot.fill), whose index pass also took the byte sum WireBytes
// reads. The context itself and its internal slices live on the System
// and are reused every bin (bins are strictly sequential; the worker
// pool drains before the next bin starts). So are the public Stats
// slices: a Sink's records are valid only during the call, and Run
// copies them.
func (s *System) newBinContext(bin int, sl *binSlot) *binContext {
	b := &sl.batch
	capacity := s.gov.Capacity()
	nq := len(s.qs)
	bc := &s.bc
	rates, exec := bc.rates, bc.exec
	sRates, sUsed, sPred := bc.Stats.Rates, bc.Stats.QueryUsed, bc.Stats.QueryPred
	*bc = binContext{
		Bin:  bin,
		Wire: b,
		Stats: BinStats{
			Start:     b.Start,
			Capacity:  capacity,
			WirePkts:  b.Packets(),
			WireBytes: b.Bytes(),
			Rates:     resizeZeroed(sRates, nq),
			QueryUsed: resizeZeroed(sUsed, nq),
			QueryPred: resizeZeroed(sPred, nq),
		},
		capacity:  capacity,
		unlimited: math.IsInf(capacity, 1),
		sketch:    sl.sketch,
		rates:     resizeZeroed(rates, nq),
	}
	if cap(exec) < nq {
		exec = make([]execResult, nq)
	}
	bc.exec = exec[:nq]
	clear(bc.exec)
	for i := range bc.rates {
		bc.rates[i] = 1
	}
	return bc
}

// resizeZeroed returns s resized to n with every element zero, reusing
// capacity when possible.
func resizeZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// step processes one filled bin slot through the full pipeline
// (Algorithm 1): capture-buffer admission, platform overhead, feature
// extraction and prediction, the shedding decision, per-query sampling
// and execution, and controller feedback.
func (s *System) step(bin int, sl *binSlot) BinStats {
	bc := s.newBinContext(bin, sl)
	s.admit(bc)
	s.platformOverhead(bc)
	s.extractPredict(bc)
	s.decideShedding(bc)
	s.execute(bc)
	s.detectChange(bc)
	s.feedback(bc)
	return bc.Stats
}

// admit models the capture buffer: when the system lags more than the
// buffer can hold, incoming packets are dropped without control before
// the system ever sees them ("DAG drops").
func (s *System) admit(bc *binContext) {
	admitted := bc.Wire.Pkts
	if !bc.unlimited {
		occ := s.gov.Delay() / bc.capacity
		bc.Stats.BufferBins = occ
		// Soft signal at 75% occupancy: the §4.1 "predefined value"
		// that resets rtthresh before any packet is lost.
		if occ > 0.75*s.cfg.BufferBins {
			bc.bufferLoss = true
		}
		if excess := occ - s.cfg.BufferBins; excess > 0 {
			dropFrac := math.Min(1, excess)
			nDrop := int(dropFrac * float64(len(admitted)))
			bc.Stats.DropPkts = nDrop
			// Tail drop: a full DAG buffer loses the packets that
			// arrive while it is full — the newest ones (§4.1). The
			// already-buffered head of the bin survives.
			admitted = admitted[:len(admitted)-nDrop]
		}
	}
	bc.Stats.AdmitPkts = len(admitted)
	// A copy of the wire batch keeps its byte sum, which newBinContext
	// took for WireBytes; the cache is keyed on the packet count, so a
	// tail drop invalidates it by itself.
	bc.Admitted = *bc.Wire
	bc.Admitted.Pkts = admitted
	// The wire batch's flow index serves the admitted one: a tail drop
	// keeps a prefix, whose flows are a prefix of the ids.
	bc.Admitted.Flows.Truncate(len(admitted))
}

// platformOverhead charges the platform's own work (como_cycles):
// capture, filtering, memory and storage management, with rare spikes
// for disk interference.
func (s *System) platformOverhead(bc *binContext) {
	bc.overhead = comoPerBin + comoPerPkt*float64(len(bc.Admitted.Pkts))
	if s.noise.Float64() < diskSpikeProb {
		bc.overhead += comoPerBin * diskSpikeFactor
	}
}

// extractPredict runs feature extraction over the admitted stream and
// asks every query's predictor for its full-rate cost (predictive
// scheme only), charging the prediction subsystem's cycles.
func (s *System) extractPredict(bc *binContext) {
	if s.cfg.Scheme != Predictive {
		return
	}
	var predSum float64
	// The slot's fill sketched the wire batch. Admission only ever
	// truncates the batch's tail, so an equal packet count means the
	// sketch is exactly the admitted batch's; a DAG-drop bin truncates
	// it to the admitted prefix, which re-inserts the hashes it already
	// holds.
	sk := bc.sketch
	if sk.Pkts() != len(bc.Admitted.Pkts) {
		sk.Truncate(len(bc.Admitted.Pkts))
	}
	s.globalExt.Ops += sk.Ops()
	bc.overhead += features.CostPerOp * float64(sk.Ops())
	// FinishSketchInto writes the extractor's scratch vector — no
	// per-bin allocation. It stays valid for the whole bin (workers read
	// it in execute) because the next write to it is the next bin's
	// extractPredict, on this goroutine, after the pool has drained.
	bc.fv = s.globalExt.ExtractFromSketch(sk, float64(bc.Admitted.Packets()), float64(bc.Admitted.Bytes()))
	// The MLR queries refit in one shared round: columns their histories
	// hold in common are centred once, with every prediction and op
	// count bit-equal to a refit of its own. The counters still price a
	// full per-query refit each, the thesis' algorithm (Table 3.4).
	s.refit.Open()
	for i, rq := range s.qs {
		if rq == nil { // tombstoned: predicts 0, contributes nothing
			continue
		}
		var p float64
		if rq.mlr != nil {
			fcbf, fit := rq.mlr.FCBFOps, rq.mlr.FitOps
			p = s.refit.Predict(rq.mlr, bc.fv)
			bc.overhead += predict.FCBFCostPerOp*float64(rq.mlr.FCBFOps-fcbf) + predict.FitCostPerOp*float64(rq.mlr.FitOps-fit)
		} else {
			p = rq.pred.Predict(bc.fv)
		}
		bc.Stats.QueryPred[i] = p
		predSum += p
	}
	bc.Stats.Predicted = predSum
}

// decideShedding turns availability and predictions into per-query
// sampling rates, according to the configured scheme.
func (s *System) decideShedding(bc *binContext) {
	avail := s.gov.Avail(bc.overhead)
	bc.Stats.Avail = avail
	switch s.cfg.Scheme {
	case Predictive:
		if !bc.unlimited {
			s.decidePredictive(avail, bc.Stats.QueryPred, bc.rates)
		}
	case Reactive:
		if !bc.unlimited {
			// Eq. 4.1: srate_t = min(1, max(α, srate_{t-1} ·
			// (avail_t − delay)/consumed_{t-1})), where avail is just
			// capacity minus overhead and delay is only the previous
			// bin's overshoot — the reactive baseline has no notion of
			// accumulated backlog, which is exactly why it overruns its
			// buffers under sustained overload (Fig. 4.2c).
			rAvail := bc.capacity - bc.overhead - s.reactiveDelay
			r := 1.0
			if s.lastConsumed > 0 {
				r = s.reactiveRate * rAvail / s.lastConsumed
			}
			r = math.Min(1, math.Max(reactiveMinRate, r))
			s.reactiveRate = r
			for i := range bc.rates {
				bc.rates[i] = r
			}
		}
	case Original, NoShed:
		// No sampling: the buffer is the only defence.
	}
}

// decidePredictive fills rates according to the configured strategy (or
// the Chapter 4 single global rate when no strategy is set).
func (s *System) decidePredictive(avail float64, preds []float64, rates []float64) {
	var predSum float64
	for _, p := range preds {
		predSum += p
	}
	if predSum <= 0 {
		// Cold start: no model yet (first batch ever). Processing blind
		// at full rate can cost many times the bin budget before the
		// first observation lands; admit a conservative trickle instead
		// so the first history points are cheap and informative.
		for i := range rates {
			rates[i] = coldStartRate
		}
		return
	}
	if s.cfg.Strategy == nil {
		rate := 1.0
		if s.gov.NeedShed(avail, predSum) {
			rate = s.gov.Rate(avail, predSum)
		}
		for i := range rates {
			rates[i] = rate
		}
		return
	}
	budget := s.gov.QueryBudget(avail)
	if cap(s.demandBuf) < len(s.qs) {
		s.demandBuf = make([]sched.Demand, len(s.qs))
	}
	demands := s.demandBuf[:len(s.qs)]
	for i, rq := range s.qs {
		if rq == nil {
			// Tombstoned slot: a zero Demand is neutral under every
			// strategy (no cycles, no minimum rate), so the allocation
			// the live queries see is unchanged by the slot's presence.
			demands[i] = sched.Demand{}
			continue
		}
		demand := preds[i]
		if rq.shed != nil {
			// The custom manager's correction factor converts the
			// (shed-regime) prediction into a demand estimate.
			demand = s.manager.Demand(rq.shed, preds[i])
		}
		demands[i] = sched.Demand{
			Name:    rq.q.Name(),
			Cycles:  demand,
			MinRate: rq.q.MinRate(),
		}
	}
	for i, a := range sched.AllocateInto(s.cfg.Strategy, demands, budget, &s.schedWs) {
		rates[i] = a.Rate
	}
}

// execute sheds and runs every query: the shed step, sequentially, then
// the per-query run fanned out over the run's execute pool (inline
// without one). Every worker writes only its query's state and
// per-index result slots, and the slots are merged in index order
// afterwards, so the bin record is bit-identical for any worker count.
func (s *System) execute(bc *binContext) {
	s.shed(bc)
	if s.execFn == nil {
		// bc is always the System's reused context, so one closure serves
		// every bin.
		s.execFn = func(i int) { s.executeQuery(&s.bc, i) }
	}
	s.execPool.run(len(s.qs), s.execFn)

	// Deterministic merge: index order fixes the floating-point
	// summation order regardless of which worker ran which query.
	// Tombstoned slots are skipped: their exec slots are zero, but their
	// never-written Rates entry (0) would otherwise pin GlobalRate to 0
	// for the rest of the run.
	usedSum, allocSum, minRate := 0.0, 0.0, 1.0
	for i := range s.qs {
		if s.qs[i] == nil {
			continue
		}
		usedSum += bc.exec[i].used
		allocSum += bc.exec[i].alloc
		if r := bc.Stats.Rates[i]; r < minRate {
			minRate = r
		}
	}
	bc.Stats.Used = usedSum
	bc.Stats.Shed = bc.shedCycles
	bc.Stats.Overhead = bc.overhead
	bc.Stats.Alloc = allocSum
	bc.Stats.GlobalRate = minRate
}

// draw is one packet selection of the bin, queued by the shed step for
// its draw pass: samp selects at rate into *idx.
type draw struct {
	samp *sampling.PacketSampler
	rate float64
	idx  *[]int32
}

// shed is execute's sequential first half: every query's shedding for
// the bin, done before the fan-out so that the workers only run,
// measure and observe. It applies the custom-shedding requests, draws
// every packet selection of the bin in one pass, builds the batch view
// each query reads, sketches the shared shed stream and folds each
// interval state once.
func (s *System) shed(bc *binContext) {
	predictive := s.cfg.Scheme == Predictive
	s.draws = s.draws[:0]
	repRate, nSampled := 0.0, 0
	for i, rq := range s.qs {
		if rq == nil { // tombstoned slot: zero rate, zero cycles, no result
			continue
		}
		rate := bc.rates[i]
		if predictive && rate < 1 && !(rq.shed != nil && rq.shed.Mode() == custom.ModeCustom) {
			repRate += rate
			nSampled++
		}
		// effRate is the rate the query is told was applied; fold is the
		// sketch its stream's features come from, the shed one exactly when
		// the query reads a selection.
		rq.qbatch, rq.effRate, rq.fold = bc.Admitted, rate, foldFull
		if rate < 1 {
			rq.fold = foldShed
		}
		if rq.shed != nil && predictive {
			switch rq.shed.Mode() {
			case custom.ModeCustom:
				// Custom shedding: the query sheds internally; the batch is
				// delivered whole and the query assumes no packet loss. A
				// zero allocation withholds the batch entirely (the query
				// is disabled for this bin) and leaves nothing to observe.
				s.manager.Apply(rq.shed, rate)
				rq.effRate, rq.fold = 1, foldFull
				if rate <= 0 {
					rq.qbatch.Pkts, rq.fold = nil, foldNone
				}
			case custom.ModePoliced:
				// The system took shedding away: enforced packet sampling
				// (§6.1.1).
				s.manager.Apply(rq.shed, rate)
			case custom.ModeDisabled:
				// An empty batch at residual cost: observing it would fill
				// the MLR history with (empty features, near-zero cost).
				s.manager.Apply(rq.shed, 0)
				rate, rq.effRate, rq.fold = 0, 1, foldNone
				rq.qbatch.Pkts = nil
			}
		}
		switch {
		case rq.fold != foldShed:
		case rq.fsamp != nil:
			rq.sel = rq.fsamp.SelectInto(rq.sel, bc.Admitted.Flows, rate)
		default:
			s.draws = append(s.draws, draw{rq.psamp, rate, &rq.sel})
		}
		bc.Stats.Rates[i] = rate
	}

	// Sketch the shed stream once, shared across queries (§5.5.4: "the
	// traffic features could be recomputed just once"): a packet sample
	// of the admitted batch at the mean rate of the sampled queries,
	// whose bitmaps approximate every sampled query's stream. The sketch
	// inserts the distinct flows the sample touches straight from the
	// per-flow hash columns the bin slot's fill already filled, so no
	// packet or hash is copied and none re-hashed, and it is charged per
	// selected packet all the same. The mean stays below 1: a sequential
	// float64 sum of k rates below 1 is at most the largest double below
	// k, and that over k is at most 1−2⁻⁵³.
	if nSampled > 0 {
		repRate /= float64(nSampled)
		s.draws = append(s.draws, draw{s.shedSamp, repRate, &s.shedIdx})
	}

	// The draw pass: two selections per loop, so that two xorshift chains
	// overlap. Each sampler owns its RNG stream, so pairing them changes
	// no draw.
	n := len(bc.Admitted.Pkts)
	for j := 0; j < len(s.draws); j += 2 {
		x := &s.draws[j]
		if j+1 == len(s.draws) {
			*x.idx = x.samp.SelectInto(*x.idx, n, x.rate)
			break
		}
		y := &s.draws[j+1]
		*x.idx, *y.idx = sampling.SelectPair(x.samp, y.samp, *x.idx, *y.idx, n, x.rate, y.rate)
	}
	// Shed by selection: a sampled query reads the admitted packets
	// through its sampler's index list, so no packet is copied. The list
	// only has to live until the query's Process returns.
	for _, rq := range s.qs {
		if rq != nil && rq.fold == foldShed {
			selectView(&rq.qbatch, rq.sel)
		}
	}

	if nSampled > 0 {
		bc.sketch.SelectInto(s.shedSketch, s.shedIdx)
		ops := s.shedSketch.Ops()
		s.shedOps += ops
		bc.shedCycles += features.CostPerOp * float64(ops)
		bc.shedCycles += sampleCostPerPkt * float64(len(bc.Admitted.Pkts))
	}
	if predictive {
		s.foldStates(bc)
	}
}

// foldKind is which of the bin's sketches a query's stream folds into
// its interval state.
type foldKind uint8

const (
	foldNone foldKind = iota // nothing: the query observes nothing this bin
	foldFull                 // the admitted stream's, binContext.sketch
	foldShed                 // the shed stream's, System.shedSketch
)

// ivState is an interval state (features.Interval) shared by every
// query whose folds this interval were the same, plus foldStates' books
// for the bin, which are zero between bins: the members per foldKind,
// the kind with the most of them, and the state each kind's members
// move to.
type ivState struct {
	*features.Interval
	fold  foldKind // what the members fold this bin
	count [3]int
	keep  foldKind
	split [3]*ivState
}

// foldStates folds each interval state once for the bin (§3.2.1's
// new-item counters, which each query used to keep in an extractor of
// its own). Queries without a state — all of them in an interval's
// first bin, a mid-interval arrival — start in one empty state. Members
// of a state that fold different sketches, or none, split first: the
// largest group keeps the state, and every other group moves to a
// pooled copy of it as it was before the fold. Bitmaps are pure ORs, so
// a state's members hold exactly the bitmaps a private extractor each
// would hold.
func (s *System) foldStates(bc *binContext) {
	var empty *ivState
	for _, rq := range s.qs {
		if rq == nil {
			continue
		}
		if rq.iv == nil {
			if empty == nil {
				empty = s.newState()
				empty.Reset()
			}
			rq.iv = empty
		}
		st := rq.iv
		if st.count[rq.fold]++; st.count[rq.fold] > st.count[st.keep] {
			st.keep = rq.fold
		}
	}
	for _, rq := range s.qs {
		if rq == nil {
			continue
		}
		st := rq.iv
		if st.split[rq.fold] == nil {
			to := st
			if rq.fold != st.keep {
				to = s.newState()
				to.CopyFrom(st.Interval)
			}
			to.fold, st.split[rq.fold] = rq.fold, to
		}
		rq.iv = st.split[rq.fold]
	}
	for _, st := range s.ivs {
		switch st.fold {
		case foldFull:
			st.Fold(bc.sketch)
		case foldShed:
			st.Fold(s.shedSketch)
		}
		st.count, st.keep, st.split = [3]int{}, foldNone, [3]*ivState{}
	}
}

// newState takes the next pooled interval state into use; its interval
// contents are unspecified. The pool never runs out: it holds a state
// per query slot, and every state in use has a member.
func (s *System) newState() *ivState {
	s.ivs = s.ivPool[:len(s.ivs)+1]
	return s.ivs[len(s.ivs)-1]
}

// executeQuery runs, measures and observes one query. It runs on a
// worker goroutine: it may read shared state frozen by the earlier
// stages (the admitted batch, the bin's sketches, the interval states)
// but writes only query-local state (the query, its predictor, its
// custom-shedding record, its own RNG stream) and the per-index slots
// of bc.
func (s *System) executeQuery(bc *binContext, i int) {
	rq := s.qs[i]
	if rq == nil {
		return
	}
	rate := bc.Stats.Rates[i]
	qb := &rq.qbatch
	ops := rq.q.Process(qb, rq.effRate)
	base := costModel.Cycles(ops)
	measured, spiked := s.measure(rq.noise, base)
	bc.Stats.QueryUsed[i] = measured
	bc.exec[i] = execResult{used: measured, alloc: bc.Stats.QueryPred[i] * rate}
	if s.cfg.Scheme != Predictive {
		return
	}

	// Update the query's prediction history with the features of its
	// (possibly shed) stream (Algorithm 1 lines 12, 16): the distinct
	// counts of its interval state's fold, and the packet and byte counts
	// of its own view — the admitted batch's, unless it reads a
	// selection. rq.fv only has to live until Observe copies it.
	if rq.fold != foldNone {
		rq.fv = rq.iv.VectorInto(rq.fv, float64(qb.Packets()), float64(qb.Bytes()))
		if spiked {
			// §3.2.4: measurements corrupted by context switches are
			// replaced with the prediction in the MLR history.
			rq.pred.Observe(rq.fv, bc.Stats.QueryPred[i]*rate)
		} else {
			rq.pred.Observe(rq.fv, measured)
		}
	}
	if rq.shed != nil {
		s.manager.Audit(rq.shed, measured, bc.Stats.QueryPred[i])
	}
}

// selectView narrows b to the packets sel selects. An empty selection
// drops the packets too: a nil Sel reads as every packet.
func selectView(b *pkt.Batch, sel []int32) {
	b.Sel = sel
	if len(sel) == 0 {
		b.Pkts = nil
	}
}

// detectChange feeds the online drift detector with this bin's feature
// vector and aggregate prediction residual, and on a change verdict
// tells every MLR predictor to drop its pre-change history. The
// residual is a log-ratio so over- and under-prediction are symmetric
// and the detector's thresholds are scale-free. Runs after execute so
// Used/Alloc are final, and unlike feedback it also runs under
// unlimited capacity — drift experiments measure raw accuracy without
// a cycle budget. The detector's own cost (O(features) per bin) is
// not charged to platform overhead; see DESIGN.md, "Prediction and drift".
func (s *System) detectChange(bc *binContext) {
	if s.det == nil || bc.fv == nil {
		return
	}
	residual := math.Log((bc.Stats.Used + 1) / (bc.Stats.Alloc + 1))
	v := s.det.Observe(bc.fv, residual)
	bc.Stats.ChangeScore = v.Score
	bc.Stats.Change = v.Change
	if !v.Change {
		return
	}
	for _, rq := range s.qs {
		if rq != nil && rq.mlr != nil {
			rq.mlr.NotifyChange()
		}
	}
}

// feedback closes the control loop: the governor observes what the bin
// actually cost against what it allocated.
func (s *System) feedback(bc *binContext) {
	if bc.unlimited {
		return
	}
	s.reactiveDelay = math.Max(0, bc.Stats.Used+bc.overhead+bc.shedCycles-bc.capacity)
	s.gov.Observe(core.Feedback{
		Predicted:   bc.Stats.Predicted,
		AllocCycles: bc.Stats.Alloc,
		UsedCycles:  bc.Stats.Used,
		ShedCycles:  bc.shedCycles,
		Overhead:    bc.overhead,
		QueryAvail:  bc.Stats.Avail,
		BufferLoss:  bc.bufferLoss,
	})
	s.lastConsumed = bc.Stats.Used
}

// measure converts true cycles into a measured value, adding the noise
// and occasional spikes of TSC-based measurement (§3.2.4). Each query
// draws from its own RNG stream so that measurements are independent of
// the order in which the worker pool runs the queries.
func (s *System) measure(rng *hash.XorShift, base float64) (measured float64, spiked bool) {
	m := base
	if s.cfg.NoiseSigma > 0 {
		m *= math.Exp(s.cfg.NoiseSigma*rng.NormFloat64() - s.cfg.NoiseSigma*s.cfg.NoiseSigma/2)
	}
	if s.cfg.SpikeProb > 0 && rng.Float64() < s.cfg.SpikeProb {
		m *= costSpikeFactor
		return m, true
	}
	return m, false
}
