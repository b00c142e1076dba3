package main

import (
	"time"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/pkg/loadshed"
)

// acc accumulates one probe: total time, total units of work (packets,
// calls) and the number of observations.
type acc struct {
	dur   time.Duration
	units float64
	n     int64
}

// shadow re-runs each layer's public functions on the input the engine
// just processed: the admitted batch of the bin and the per-query rates
// the engine reported for it. It owns a private instance of every
// layer, kept in step with the engine's interval boundaries, so a probe
// sees the same state shape (interval bitmaps, MLR history, query
// tables) as the call it stands for — without touching the engine.
type shadow struct {
	tr       *tracer
	shard    int
	strategy sched.Strategy

	ext     *features.Extractor // full-stream extractor
	shedExt *features.Extractor // shed-stream extractor
	sk      *features.Sketch
	fv      features.Vector
	shedFv  features.Vector

	qs        []queries.Query // all ten Table 2.2 queries
	engineIdx []int           // slot of qs[j] in the engine's set, -1 if the engine does not run it
	qext      []*features.Extractor
	qfv       []features.Vector
	mlr       []*predict.MLR
	psamp     []*sampling.PacketSampler
	fsamp     []*sampling.FlowSampler
	bufs      [][]pkt.Packet
	shedSamp  *sampling.PacketSampler
	shedBuf   []pkt.Packet

	gov     *core.Governor
	ws      sched.Workspace
	demands []sched.Demand
	det     *detect.Detector

	h3     *hash.H3
	hashes []uint64
	mr     *bitmap.MultiRes

	acc    map[string]*acc
	layers map[string]time.Duration // Σ probe time per layer, over probed bins
	bins   int64
	cur    int64 // id of the bin being probed
}

func newShadow(tr *tracer, shard int, strategy sched.Strategy) *shadow {
	const seed = 11
	s := &shadow{
		tr: tr, shard: shard, strategy: strategy,
		ext: features.NewExtractor(seed), shedExt: features.NewExtractor(seed),
		sk:       features.NewSketch(),
		qs:       queries.FullSet(queries.Config{Seed: seed}),
		shedSamp: sampling.NewPacketSampler(seed),
		det:      detect.New(detect.Config{}, features.NumFeatures),
		h3:       hash.NewH3(seed),
		mr:       bitmap.DefaultMultiRes(),
		acc:      map[string]*acc{},
		layers:   map[string]time.Duration{},
	}
	for j := range s.qs {
		s.engineIdx = append(s.engineIdx, -1)
		s.qext = append(s.qext, features.NewExtractor(seed))
		s.qfv = append(s.qfv, nil)
		s.mlr = append(s.mlr, predict.NewMLR(predict.DefaultHistory, predict.DefaultThreshold))
		s.psamp = append(s.psamp, sampling.NewPacketSampler(seed+uint64(j)))
		s.fsamp = append(s.fsamp, sampling.NewFlowSampler(seed+uint64(j)))
		s.bufs = append(s.bufs, nil)
	}
	s.demands = make([]sched.Demand, 0, len(s.qs))
	s.startInterval()
	return s
}

func (s *shadow) onQuery(i int, name string) {
	for j, q := range s.qs {
		if q.Name() == name {
			s.engineIdx[j] = i
		}
	}
}

func (s *shadow) startInterval() {
	s.ext.StartInterval()
	s.shedExt.StartInterval()
	for j := range s.qs {
		s.qext[j].StartInterval()
		s.fsamp[j].StartInterval()
	}
}

// obs records one probe: a span under the current bin and an entry in
// the accumulator. layer, when set, adds the time to that layer's
// per-bin total (only the calls the engine itself would have made).
func (s *shadow) obs(name, layer string, start time.Duration, units float64) {
	end := s.tr.now()
	s.tr.add(0, s.cur, s.shard, kindProbe, name, start, end)
	a := s.acc[name]
	if a == nil {
		a = &acc{}
		s.acc[name] = a
	}
	a.dur += end - start
	a.units += units
	a.n++
	if layer != "" {
		s.layers[layer] += end - start
	}
}

// bin probes every layer on one bin's input.
func (s *shadow) bin(id int64, admitted pkt.Batch, b *loadshed.BinStats) {
	s.cur = id
	s.bins++
	pkts := admitted.Pkts
	n := float64(len(pkts))
	now := s.tr.now

	// hash and bitmap: one aggregate's worth of the sketch inner loops.
	t := now()
	s.hashes = s.h3.AggHashes(s.hashes[:0], pkts, pkt.Agg5Tuple)
	s.obs("hash.agg", "", t, n)
	s.mr.Reset()
	t = now()
	s.mr.InsertMany(s.hashes)
	s.obs("bitmap.insert", "", t, n)
	t = now()
	est := s.mr.Estimate()
	s.obs("bitmap.estimate", "", t, 1)
	calibSink += uint64(est)

	// features: global sketch + finish, as extractPredict does.
	t = now()
	s.ext.SketchInto(s.sk, pkts)
	s.obs("features.sketch", "features", t, n)
	t = now()
	s.fv = s.ext.FinishSketchInto(s.fv, s.sk, n, float64(admitted.Bytes()))
	s.obs("features.finish", "features", t, 1)

	// predict: every engine query refits and predicts from the bin's
	// vector.
	for j := range s.qs {
		if s.engineIdx[j] < 0 {
			continue
		}
		t = now()
		p := s.mlr[j].Predict(s.fv)
		s.obs("predict.fit_predict", "predict", t, 1)
		calibSink += uint64(p)
	}

	// core + sched: the decision, from the numbers the engine decided on.
	shedding := false
	for _, r := range b.Rates {
		if r < 1 {
			shedding = true
		}
	}
	if b.Capacity > 0 && b.Capacity < 1e300 {
		if s.gov == nil {
			s.gov = core.NewGovernor(b.Capacity)
		}
		t = now()
		s.gov.SetCapacity(b.Capacity)
		avail := s.gov.Avail(b.Overhead)
		need := s.gov.NeedShed(avail, b.Predicted)
		rate := s.gov.Rate(avail, b.Predicted)
		budget := s.gov.QueryBudget(avail)
		s.obs("core.governor.decide", "core", t, 1)
		if need {
			calibSink += uint64(rate * 8)
		}
		if s.strategy != nil {
			s.demands = s.demands[:0]
			for j, q := range s.qs {
				if i := s.engineIdx[j]; i >= 0 {
					s.demands = append(s.demands, sched.Demand{Name: q.Name(), Cycles: b.QueryPred[i], MinRate: q.MinRate()})
				}
			}
			t = now()
			allocs := sched.AllocateInto(s.strategy, s.demands, budget, &s.ws)
			s.obs("sched.allocate", "sched", t, 1)
			calibSink += uint64(len(allocs))
		}
	}

	// sampling + shed-stream re-extraction, as execute does.
	if shedding {
		rep, k := 0.0, 0
		for _, r := range b.Rates {
			if r < 1 {
				rep += r
				k++
			}
		}
		rep /= float64(k)
		t = now()
		s.shedBuf = s.shedSamp.SampleInto(s.shedBuf[:0], pkts, rep)
		s.obs("sampling.packet", "sampling", t, n)
		sb := pkt.Batch{Start: admitted.Start, Bin: admitted.Bin, Pkts: s.shedBuf}
		t = now()
		s.shedFv = s.shedExt.ExtractInto(s.shedFv, &sb)
		s.obs("features.extract", "features", t, float64(len(sb.Pkts)))
	}

	// queries: each on its own (possibly sampled) view of the batch.
	for j, q := range s.qs {
		i := s.engineIdx[j]
		layer := func(l string) string {
			if i < 0 {
				return "" // priced, but not part of this engine's bin
			}
			return l
		}
		rate := 1.0
		if i >= 0 {
			rate = b.Rates[i]
		}
		qb := admitted
		if rate < 1 {
			t = now()
			if q.Method() == sampling.Flow {
				s.bufs[j] = s.fsamp[j].SampleInto(s.bufs[j][:0], pkts, rate)
				s.obs("sampling.flow", layer("sampling"), t, n)
			} else {
				s.bufs[j] = s.psamp[j].SampleInto(s.bufs[j][:0], pkts, rate)
				s.obs("sampling.packet", layer("sampling"), t, n)
			}
			qb.Pkts = s.bufs[j]
		}
		if len(qb.Pkts) > 0 {
			t = now()
			ops := q.Process(&qb, rate)
			s.obs("queries."+q.Name()+".process", layer("queries"), t, float64(len(qb.Pkts)))
			calibSink += uint64(ops.Packets)
		}
		if i < 0 {
			continue
		}
		// Feature merge for the query's history, then Observe.
		t = now()
		if rate >= 1 {
			s.qfv[j] = s.qext[j].FinishSketchInto(s.qfv[j], s.sk, n, float64(admitted.Bytes()))
		} else {
			s.qfv[j] = s.qext[j].FinishSketchInto(s.qfv[j], s.shedExt.Sketch(), float64(len(qb.Pkts)), float64(qb.Bytes()))
		}
		s.obs("features.finish", "features", t, 1)
		t = now()
		s.mlr[j].Observe(s.qfv[j], b.QueryUsed[i])
		s.obs("predict.observe", "predict", t, 1)
	}

	// detect: priced although the workloads leave the detector off.
	t = now()
	v := s.det.Observe(s.fv, 0)
	s.obs("detect.observe", "", t, 1)
	if v.Change {
		calibSink++
	}

	// core: feedback closes the loop.
	if s.gov != nil {
		t = now()
		s.gov.Observe(core.Feedback{
			Predicted: b.Predicted, AllocCycles: b.Alloc, UsedCycles: b.Used,
			ShedCycles: b.Shed, Overhead: b.Overhead, QueryAvail: b.Avail,
		})
		s.obs("core.governor.observe", "core", t, 1)
	}
}

// interval mirrors the engine's measurement-interval boundary: flush
// every query (timed), rotate interval state (untimed — the engine's
// own rotation is inside its self time).
func (s *shadow) interval(id int64) {
	s.cur = id
	for j, q := range s.qs {
		t := s.tr.now()
		res, _ := q.Flush()
		if s.engineIdx[j] >= 0 {
			s.obs("queries.flush", "", t, 1)
		}
		if res == nil {
			calibSink++
		}
	}
	s.startInterval()
}

// per returns total time over units (ns) for a probe; 0 with no samples.
func (s *shadow) per(name string) float64 {
	a := s.acc[name]
	if a == nil || a.units == 0 {
		return 0
	}
	return float64(a.dur.Nanoseconds()) / a.units
}

// perCall returns mean ns per observation of a probe.
func (s *shadow) perCall(name string) float64 {
	a := s.acc[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.dur.Nanoseconds()) / float64(a.n)
}

// merge folds another shard's accumulators into s, so a cluster
// reports one pooled figure per probe.
func (s *shadow) merge(o *shadow) {
	for k, a := range o.acc {
		d := s.acc[k]
		if d == nil {
			d = &acc{}
			s.acc[k] = d
		}
		d.dur += a.dur
		d.units += a.units
		d.n += a.n
	}
	for k, d := range o.layers {
		s.layers[k] += d
	}
	s.bins += o.bins
}
