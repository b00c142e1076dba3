package loadshed

// Stage-level tests: the admit stage's capture-buffer model, the
// reactive Eq. 4.1 update, sampled queries' interval rotation, the
// selection views sampled queries read and the ModeDisabled observation
// guard — all white-box against a System driven one stage or one bin at
// a time.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/queries"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// nPktBatch builds a synthetic batch of n identical-size packets.
func nPktBatch(n int) pkt.Batch {
	pkts := make([]pkt.Packet, n)
	for i := range pkts {
		pkts[i] = pkt.Packet{Ts: int64(i), SrcIP: uint32(i), Size: 100, Proto: pkt.ProtoTCP}
	}
	return pkt.Batch{Bin: 100 * time.Millisecond, Pkts: pkts}
}

// slotOf fills the System's first ring slot with b, as the run
// goroutine does at Workers = 1, and returns it.
func slotOf(s *System, b pkt.Batch) *binSlot {
	sl := &s.ensurePipeline().slots[0]
	sl.fill(b, true)
	return sl
}

func counterOnly() []queries.Query {
	return []queries.Query{queries.NewCounter(queries.Config{Seed: 1})}
}

// TestAdmitBufferModel drives the admit stage directly: a delay is
// injected into the governor, and the stage must produce the §4.1 soft
// occupancy signal at 75% of the buffer and the uncontrolled DAG drop
// fraction min(1, occupancy − BufferBins) beyond it.
func TestAdmitBufferModel(t *testing.T) {
	const (
		capacity   = 1000.0
		bufferBins = 10.0
		npkts      = 200
	)
	cases := []struct {
		name      string
		delay     float64 // injected backlog, cycles
		wantDrops int
		wantLoss  bool
		wantAdmit int
		unlimited bool
	}{
		{name: "empty buffer", delay: 0, wantDrops: 0, wantLoss: false, wantAdmit: npkts},
		{name: "half full", delay: 5000, wantDrops: 0, wantLoss: false, wantAdmit: npkts},
		{name: "soft signal above 75%", delay: 8000, wantDrops: 0, wantLoss: true, wantAdmit: npkts},
		{name: "overflow drops the excess fraction", delay: 10500, wantDrops: 100, wantLoss: true, wantAdmit: 100},
		{name: "deep overflow drops everything", delay: 13000, wantDrops: 200, wantLoss: true, wantAdmit: 0},
		{name: "unlimited capacity never drops", delay: 13000, wantDrops: 0, wantLoss: false, wantAdmit: npkts, unlimited: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Scheme: Predictive, Capacity: capacity, BufferBins: bufferBins, Seed: 1}
			if tc.unlimited {
				cfg.Capacity = math.Inf(1)
			}
			s := New(cfg, counterOnly())
			// Inject the backlog: an overhead-only bin leaves exactly
			// delay cycles pending (QueryAvail < 0 keeps rtthresh at 0).
			s.gov.Observe(core.Feedback{Overhead: capacity + tc.delay, QueryAvail: -1})
			if !tc.unlimited && s.gov.Delay() != tc.delay {
				t.Fatalf("injected delay %v, governor holds %v", tc.delay, s.gov.Delay())
			}
			bc := s.newBinContext(0, slotOf(s, nPktBatch(npkts)))
			s.admit(bc)
			if bc.Stats.DropPkts != tc.wantDrops {
				t.Errorf("DropPkts = %d, want %d", bc.Stats.DropPkts, tc.wantDrops)
			}
			if bc.Stats.AdmitPkts != tc.wantAdmit {
				t.Errorf("AdmitPkts = %d, want %d", bc.Stats.AdmitPkts, tc.wantAdmit)
			}
			if bc.bufferLoss != tc.wantLoss {
				t.Errorf("bufferLoss = %v, want %v", bc.bufferLoss, tc.wantLoss)
			}
			if !tc.unlimited {
				if wantOcc := tc.delay / capacity; bc.Stats.BufferBins != wantOcc {
					t.Errorf("BufferBins = %v, want %v", bc.Stats.BufferBins, wantOcc)
				}
			}
		})
	}
}

// TestAdmitTailDrop is the regression test for the drop-direction bug:
// the admit stage modelled buffer overflow as admitted[nDrop:], i.e.
// dropping the *oldest* packets, but a full DAG buffer loses the newest
// arrivals — the ones that find it full (§4.1). The surviving packets
// must be the head of the bin, in order, and the dropped ones its tail.
//
// It is also the drop bin's sketch oracle. The slot's fill sketched
// the whole wire batch, on every path and at every worker count, so
// comparing runs cannot catch a missed truncation; extractPredict's
// sketch and feature vector must instead be those of a fresh extractor
// over a fresh index of the admitted prefix.
func TestAdmitTailDrop(t *testing.T) {
	const (
		capacity   = 1000.0
		bufferBins = 10.0
		npkts      = 200
	)
	s := New(Config{Scheme: Predictive, Capacity: capacity, BufferBins: bufferBins, Seed: 1}, counterOnly())
	// 10.5 bins of backlog: 0.5 bins beyond the buffer, so half the
	// batch drops.
	s.gov.Observe(core.Feedback{Overhead: capacity + 10500, QueryAvail: -1})
	sl := slotOf(s, nPktBatch(npkts))
	if sl.sketch.Pkts() != npkts {
		t.Fatalf("the slot sketched %d packets, want the wire batch's %d", sl.sketch.Pkts(), npkts)
	}
	bc := s.newBinContext(0, sl)
	s.admit(bc)

	if bc.Stats.DropPkts != npkts/2 {
		t.Fatalf("DropPkts = %d, want %d", bc.Stats.DropPkts, npkts/2)
	}
	admitted := bc.Admitted.Pkts
	if len(admitted) != npkts/2 {
		t.Fatalf("admitted %d packets, want %d", len(admitted), npkts/2)
	}
	for i := range admitted {
		// nPktBatch stamps Ts = arrival order: survivors must be the
		// earliest packets, not the latest.
		if admitted[i].Ts != int64(i) {
			t.Fatalf("admitted[%d].Ts = %d: buffer overflow dropped buffered packets instead of new arrivals", i, admitted[i].Ts)
		}
	}

	s.extractPredict(bc)
	prefix := pkt.Batch{Pkts: nPktBatch(npkts).Pkts[:npkts/2]}
	x := pkt.NewFlowIndex(hash.FlowSalt(s.cfg.Seed))
	x.Build(prefix.Pkts)
	oracle := features.NewExtractor(s.cfg.Seed + 0xfea7) // the System's extraction seed (New)
	want := features.NewSketch()
	oracle.SketchFlows(want, x)
	oracle.StartInterval()
	wantFV := oracle.ExtractFromSketch(want, float64(prefix.Packets()), float64(prefix.Bytes()))
	if got := bc.sketch; got.Pkts() != want.Pkts() || got.Ops() != want.Ops() {
		t.Fatalf("drop bin's sketch: Pkts/Ops = %d/%d, a fresh sketch of the admitted prefix %d/%d", got.Pkts(), got.Ops(), want.Pkts(), want.Ops())
	}
	if !reflect.DeepEqual(bc.fv, wantFV) {
		t.Fatalf("drop bin's feature vector:\n got %v\nwant %v (a fresh extractor over the admitted prefix)", bc.fv, wantFV)
	}
}

// TestReactiveRateUpdate pins the Eq. 4.1 update:
// srate_t = min(1, max(α, srate_{t-1} · (capacity − overhead − delay) / consumed_{t-1})).
func TestReactiveRateUpdate(t *testing.T) {
	const capacity = 1000.0
	const alpha = 0.01
	cases := []struct {
		name     string
		prevRate float64
		consumed float64
		delay    float64
		overhead float64
		want     float64
	}{
		{name: "cold start runs full rate", prevRate: 1, consumed: 0, overhead: 200, want: 1},
		{name: "overrun halves the rate", prevRate: 1, consumed: 1600, overhead: 200, want: 0.5},
		{name: "recovery caps at 1", prevRate: 0.5, consumed: 250, overhead: 200, delay: 300, want: 1},
		{name: "negative availability floors at alpha", prevRate: 0.5, consumed: 1000, overhead: 900, delay: 200, want: alpha},
		{name: "growth from deep shed", prevRate: 0.2, consumed: 100, overhead: 0, want: 1},
		{name: "proportional shrink with delay", prevRate: 0.8, consumed: 1000, overhead: 100, delay: 400, want: 0.8 * 500 / 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Scheme: Reactive, Capacity: capacity, Seed: 1}, counterOnly())
			s.reactiveRate = tc.prevRate
			s.lastConsumed = tc.consumed
			s.reactiveDelay = tc.delay
			bc := s.newBinContext(0, slotOf(s, nPktBatch(10)))
			bc.overhead = tc.overhead
			s.decideShedding(bc)
			for i, r := range bc.rates {
				if !(math.Abs(r-tc.want) <= 1e-12) { // a NaN rate fails too
					t.Fatalf("rates[%d] = %v, want %v", i, r, tc.want)
				}
			}
			if !(math.Abs(s.reactiveRate-tc.want) <= 1e-12) {
				t.Fatalf("reactiveRate = %v, want %v", s.reactiveRate, tc.want)
			}
		})
	}
}

// TestReactiveRateAtZeroConsumption runs the reactive scheme from a bin
// that consumes nothing — its one query was removed before the run and
// the next arrives a bin later — into one whose overhead equals the
// capacity, where Eq. 4.1's update would read 0/0:
// capacity − overhead − delay is 0 and the previous bin consumed 0. The
// cold-start rule (full rate until something was consumed) must keep
// every applied rate finite and in [α, 1].
func TestReactiveRateAtZeroConsumption(t *testing.T) {
	const npkts = 200
	overhead := comoPerBin + comoPerPkt*npkts // platformOverhead's, without a disk spike
	batches := make([]pkt.Batch, 6)
	for i := range batches {
		batches[i] = nPktBatch(npkts)
		batches[i].Start = time.Duration(i) * batches[i].Bin
	}
	sys := New(Config{
		Scheme: Reactive, Capacity: overhead, Seed: 1,
		Arrivals: []Arrival{{AtBin: 1, Make: func() queries.Query { return queries.NewCounter(queries.Config{Seed: 1}) }}},
	}, counterOnly())
	if err := sys.RemoveQuery("counter"); err != nil {
		t.Fatal(err)
	}
	res := sys.Run(trace.NewMemorySource(batches, 100*time.Millisecond))
	if len(res.Bins) != len(batches) {
		t.Fatalf("%d bins, want %d", len(res.Bins), len(batches))
	}
	if b := res.Bins[0]; b.Used != 0 || b.Overhead != overhead {
		t.Fatalf("bin 0 consumed %v at overhead %v; want nothing consumed at overhead %v", b.Used, b.Overhead, overhead)
	}
	if b := res.Bins[1]; b.Overhead != b.Capacity || len(b.Rates) != 1 {
		t.Fatalf("bin 1 ran %d queries at overhead %v under capacity %v; want the arrival at overhead = capacity", len(b.Rates), b.Overhead, b.Capacity)
	}
	for i, b := range res.Bins {
		for j, r := range b.Rates {
			if !(r >= reactiveMinRate && r <= 1) {
				t.Fatalf("bin %d: query %d ran at rate %v, want a finite rate in [%v, 1]", i, j, r, reactiveMinRate)
			}
		}
	}
}

// TestSampledQueryFeaturesRotate pins what sampled queries learn from
// across a measurement-interval boundary: after two overloaded
// intervals, the new-item and interval-repeated features a sampled
// query records for the next interval's first bin must be those of a
// fresh extractor finishing the same shed sketch — nothing of the
// closed intervals' shed streams may leak into them.
func TestSampledQueryFeaturesRotate(t *testing.T) {
	const dur = 3 * time.Second
	_, demand := MeasureLoad(testSource(21, dur), stdQueries(), 99)
	sys := New(Config{Scheme: Predictive, Capacity: demand / 3, Seed: 7}, stdQueries())
	r := sys.newRunner(testSource(21, dur), nil)
	defer r.finish()
	for i := 0; i < 2*r.binsPerInterval; i++ {
		if !r.step() {
			t.Fatalf("trace ended at bin %d", i)
		}
	}
	if sys.shedOps == 0 {
		t.Fatal("the shed stream was never sketched; the run is not overloaded enough to test rotation")
	}
	if !r.step() { // crosses the boundary: first bin of the third interval
		t.Fatal("trace ended at the boundary")
	}
	sampled := 0
	for i, rq := range sys.qs {
		if rate := sys.bc.rates[i]; rate >= 1 || rate <= 0 {
			continue
		}
		sampled++
		oracle := features.NewExtractor(123)
		oracle.StartInterval()
		want := oracle.ExtractFromSketch(sys.shedSketch, float64(rq.qbatch.Packets()), float64(rq.qbatch.Bytes()))
		_, newest := historyRows(rq.mlr.History())
		for j := range features.NumFeatures {
			if name := features.Name(j); !strings.HasPrefix(name, "new ") && !strings.HasPrefix(name, "int-repeated ") {
				continue
			}
			if got := newest[j]; got != want[j] {
				t.Errorf("%s, %s: observed %v, a fresh extractor over the same shed sketch gives %v",
					rq.q.Name(), features.Name(j), got, want[j])
			}
		}
		if want[featureIndex("new 5-tuple")] == 0 {
			t.Fatalf("%s: the shed sketch is empty; test is vacuous", rq.q.Name())
		}
	}
	if sampled == 0 {
		t.Fatal("no query was sampled in the bin after the boundary; test is vacuous")
	}
}

// escalateTo walks a custom-shedding query down the enforcement ladder
// to mode by feeding the manager bins that massively overuse their
// allocation: ViolationLimit violations reach ModePoliced, another
// round reaches ModeDisabled.
func escalateTo(t *testing.T, sys *System, st *custom.State, mode custom.Mode) {
	t.Helper()
	for i := 0; st.Mode() != mode; i++ {
		if i > 100 {
			t.Fatalf("query never reached mode %v (mode %v after %d audits)", mode, st.Mode(), i)
		}
		sys.manager.Demand(st, 1000)
		sys.manager.Apply(st, 0.5)
		sys.manager.Audit(st, 1e9, 1000)
	}
}

// TestDisabledQuerySkipsObservation: a ModeDisabled query processes an
// empty batch at residual cost; feeding that (empty features, near-zero
// cost) pair to the predictor would poison the MLR history exactly like
// the rate-0 custom case the code already guards.
func TestDisabledQuerySkipsObservation(t *testing.T) {
	qs := []queries.Query{
		queries.NewP2PDetector(queries.Config{Seed: 1}),
		queries.NewCounter(queries.Config{Seed: 1}),
	}
	sys := New(Config{
		Scheme: Predictive, Capacity: 1e7, Seed: 1,
		CustomShedding: true, Strategy: MMFSPkt(),
	}, qs)
	p2p := sys.qs[0]
	if p2p.shed == nil {
		t.Fatal("p2p-detector did not register for custom shedding")
	}
	escalateTo(t, sys, p2p.shed, custom.ModeDisabled)

	p2pBefore := histLen(p2p.mlr.History())
	counterBefore := histLen(sys.qs[1].mlr.History())
	stats := sys.step(0, slotOf(sys, nPktBatch(50)))

	if got := histLen(p2p.mlr.History()); got != p2pBefore {
		t.Fatalf("disabled query's MLR history grew %d -> %d: empty-batch observation poisoned the model", p2pBefore, got)
	}
	if stats.Rates[0] != 0 {
		t.Fatalf("disabled query ran at rate %v, want 0", stats.Rates[0])
	}
	// The healthy neighbour must still learn.
	if got := histLen(sys.qs[1].mlr.History()); got != counterBefore+1 {
		t.Fatalf("counter history %d -> %d, want one new observation", counterBefore, got)
	}
}

// TestArrivalRejectsMismatchedInterval: mid-run Arrivals must face the
// same interval-equality check New applies, at arrival time.
func TestArrivalRejectsMismatchedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched arrival interval")
		}
	}()
	cfg := Config{
		Scheme: NoShed, Seed: 1,
		Arrivals: []Arrival{{AtBin: 2, Make: func() queries.Query {
			return queries.NewCounter(queries.Config{Interval: 2 * time.Second})
		}}},
	}
	New(cfg, stdQueries()).Run(testSource(1, 2*time.Second))
}

// TestSelectionViewMatchesGatheredCopy: a sampled query reads the
// admitted bin through a selection (selectView, what executeQuery
// builds), and must perform exactly the operations and report exactly
// the results it would on the gathered copy SampleInto makes — for
// every query of the registry and the two misbehaving custom shedders,
// under packet, flow and policed shedding (the packet sampler on a query
// whose own shedding was taken away), at rates 1, 0.5, 0.07 and 0, over
// three measurement intervals.
func TestSelectionViewMatchesGatheredCopy(t *testing.T) {
	g := trace.NewGenerator(trace.CESCA2(3, 3*time.Second, 0.3))
	batches := trace.Record(g)
	perInterval := int(time.Second / g.TimeBin())
	makers := map[string]func(QueryConfig) Query{"p2p-detector-selfish": NewSelfishP2P, "p2p-detector-buggy": newBuggyP2P}
	for _, k := range queryKinds {
		makers[k.name] = k.mk
	}
	for name, mk := range makers {
		for _, mode := range []string{"packet", "flow", "policed"} {
			for _, rate := range []float64{1, 0.5, 0.07, 0} {
				t.Run(fmt.Sprintf("%s/%s/%g", name, mode, rate), func(t *testing.T) {
					viaCopy, viaSel := mk(QueryConfig{Seed: 7}), mk(QueryConfig{Seed: 7})
					if mode == "policed" {
						for _, q := range []Query{viaCopy, viaSel} {
							if sh, ok := q.(custom.Shedder); ok {
								sh.ShedTo(1)
							}
						}
					}
					psCopy, psSel := sampling.NewPacketSampler(5), sampling.NewPacketSampler(5)
					fsCopy, fsSel := sampling.NewFlowSampler(5), sampling.NewFlowSampler(5)
					flows := pkt.NewFlowIndex(5)
					var buf []pkt.Packet
					var sel []int32
					flush := func(bin int) {
						got, gotOps := viaSel.Flush()
						want, wantOps := viaCopy.Flush()
						if gotOps != wantOps || !reflect.DeepEqual(got, want) {
							t.Fatalf("flush before bin %d: through the selection %+v (ops %+v), on the copy %+v (ops %+v)", bin, got, gotOps, want, wantOps)
						}
						fsCopy.StartInterval()
						fsSel.StartInterval()
					}
					for bi, b := range batches {
						if bi > 0 && bi%perInterval == 0 {
							flush(bi)
						}
						gathered, view := b, b
						view.IndexInto(flows) // the bin's index, as the engine attaches it
						if rate < 1 {
							if mode == "flow" {
								buf = fsCopy.SampleInto(buf, b.Pkts, rate)
								sel = fsSel.SelectInto(sel, flows, rate)
							} else {
								buf = psCopy.SampleInto(buf, b.Pkts, rate)
								sel = psSel.SelectInto(sel, len(b.Pkts), rate)
							}
							gathered.Pkts = buf
							selectView(&view, sel)
						}
						if view.Packets() != gathered.Packets() || view.Bytes() != gathered.Bytes() {
							t.Fatalf("bin %d: the selection holds %d packets / %d bytes, the copy %d / %d",
								bi, view.Packets(), view.Bytes(), gathered.Packets(), gathered.Bytes())
						}
						if got, want := viaSel.Process(&view, rate), viaCopy.Process(&gathered, rate); got != want {
							t.Fatalf("bin %d: ops through the selection %+v, on the copy %+v", bi, got, want)
						}
					}
					flush(len(batches))
				})
			}
		}
	}
}

// historyRows returns how many observations h stores and the newest of
// them, read through its checkpoint form.
func historyRows(h *predict.History) (n int, newest []float64) {
	st := h.State()
	n = st.Next
	if st.Full {
		n = len(st.Feats)
	}
	if n == 0 {
		return 0, nil
	}
	return n, st.Feats[(st.Next+len(st.Feats)-1)%len(st.Feats)]
}

// histLen is the number of observations h stores.
func histLen(h *predict.History) int {
	n, _ := historyRows(h)
	return n
}

// featureIndex is the vector index of the feature features.Name calls
// name.
func featureIndex(name string) int {
	for i := range features.NumFeatures {
		if features.Name(i) == name {
			return i
		}
	}
	panic("no feature " + name)
}
