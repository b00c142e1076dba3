package loadshed

// shed_test.go holds the shed step's oracle: interval states shared by
// fold history against one private features.Extractor per query, the
// design they replaced.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/custom"
	"repro/internal/features"
	"repro/internal/predict"
	"repro/internal/queries"
)

// oracleObserver is a query's MLR with an oracle in front of Observe.
// Each observation — made on the worker running the query, while the
// bin's sketches are frozen — is recomputed on the query's private
// extractor exactly as the engine computed it before interval states
// were shared: the full sketch for a rate-1 or custom-shedding query,
// the shed sketch and the query's own view otherwise, nothing for a
// withheld or disabled one.
type oracleObserver struct {
	*predict.MLR
	t        *testing.T
	run      *oracleRun
	i        int // query index
	ext      *features.Extractor
	interval int // of the extractor's last rotation
	compared int
}

// oracleRun is what the observers of one run share. bin counts the
// bins delivered so far, which is the index of the bin executing.
type oracleRun struct {
	sys         *System
	perInterval int
	bin         int
}

func (o *oracleObserver) Observe(fv features.Vector, cost float64) {
	bc, rq := &o.run.sys.bc, o.run.sys.qs[o.i]
	if iv := o.run.bin / o.run.perInterval; iv != o.interval {
		o.ext.StartInterval()
		o.interval = iv
	}
	rate := bc.rates[o.i]
	customMode := rq.shed != nil && rq.shed.Mode() == custom.ModeCustom
	if customMode && rate <= 0 || rq.shed != nil && rq.shed.Mode() == custom.ModeDisabled {
		o.t.Errorf("bin %d, %s: observed while withheld or disabled", o.run.bin, rq.q.Name())
	}
	sk, npkts, nbytes := bc.sketch, bc.fv[features.IdxPackets], bc.fv[featureIndex("bytes")]
	if rate < 1 && !customMode {
		sk, npkts, nbytes = o.run.sys.shedSketch, float64(rq.qbatch.Packets()), float64(rq.qbatch.Bytes())
	}
	want := o.ext.ExtractFromSketch(sk, npkts, nbytes)
	for j := range want {
		if math.Float64bits(fv[j]) != math.Float64bits(want[j]) {
			o.t.Errorf("bin %d, %s, %s: shared state gives %v, a private extractor %v",
				o.run.bin, rq.q.Name(), features.Name(j), fv[j], want[j])
			break
		}
	}
	o.compared++
	o.MLR.Observe(fv, cost)
}

// TestSharedIntervalStateMatchesPerQueryExtractors runs the engine with
// every query's observations checked against a private extractor, under
// strategies that mix full-rate and sampled queries within an interval,
// custom shedding with withheld, policed and disabled queries, a
// mid-interval arrival, a removal's tombstone and the drift detector,
// sequentially and on four workers.
func TestSharedIntervalStateMatchesPerQueryExtractors(t *testing.T) {
	const dur = 5 * time.Second
	scenarios := []struct {
		name     string
		strategy Strategy
		custom   bool
		qs       func() []queries.Query
	}{
		{"mmfs_cpu", MMFSCPU(), false, stdQueries},
		{"eq_srates", EqualRates(true), false, stdQueries},
		{"custom", MMFSPkt(), true, func() []queries.Query {
			cfg := queries.Config{Seed: 2}
			return []queries.Query{
				queries.NewP2PDetector(cfg), NewSelfishP2P(cfg), newBuggyP2P(cfg),
				queries.NewCounter(cfg), queries.NewFlows(cfg),
			}
		}},
	}
	for _, sc := range scenarios {
		_, demand := MeasureLoad(p2pSource(5, dur), sc.qs(), 3)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				run := &oracleRun{perInterval: 10}
				var obs []*oracleObserver
				sys := New(Config{
					Scheme: Predictive, Strategy: sc.strategy, Capacity: demand / 2.5, Seed: 5,
					Workers: workers, CustomShedding: sc.custom, ChangeDetection: true,
					Predictor: func() predict.Predictor {
						o := &oracleObserver{MLR: predict.NewMLR(predict.DefaultHistory, predict.DefaultThreshold),
							t: t, run: run, i: len(obs), ext: features.NewExtractor(1), interval: -1}
						obs = append(obs, o)
						return o
					},
					Arrivals: []Arrival{{AtBin: 14, Make: func() queries.Query { return queries.NewSuperSources(queries.Config{Seed: 2}, 0) }}},
				}, sc.qs())
				run.sys = sys
				maxStates, withheld, modes := 0, 0, map[custom.Mode]bool{}
				sys.Stream(p2pSource(5, dur), SinkFuncs{
					Query: func(i int, _ string) {
						// The engine tells an MLR by its type; hand it the
						// wrapped one so change verdicts and refit charges
						// reach it as they would reach a bare MLR.
						sys.qs[i].mlr = obs[i].MLR
					},
					Bin: func(b *BinStats) {
						maxStates = max(maxStates, len(sys.ivs))
						for i, rq := range sys.qs {
							if rq != nil && rq.shed != nil {
								modes[rq.shed.Mode()] = true
								if rq.shed.Mode() == custom.ModeCustom && sys.bc.rates[i] <= 0 {
									withheld++
								}
							}
						}
						defer func() { run.bin++ }()
						switch run.bin {
						case 12:
							if sc.custom {
								escalateTo(t, sys, sys.qs[1].shed, custom.ModePoliced)
								escalateTo(t, sys, sys.qs[2].shed, custom.ModeDisabled)
							}
						case 25:
							if err := sys.RemoveQuery("counter"); err != nil {
								t.Fatal(err)
							}
						}
					},
				})
				compared := 0
				for _, o := range obs {
					compared += o.compared
				}
				t.Logf("%d observations compared, up to %d interval states, %d withheld bins, modes %v", compared, maxStates, withheld, modes)
				if compared == 0 || maxStates < 2 {
					t.Fatalf("vacuous: %d observations, at most %d interval states", compared, maxStates)
				}
				if sc.custom && (withheld == 0 || !modes[custom.ModePoliced] || !modes[custom.ModeDisabled]) {
					t.Fatalf("vacuous: %d withheld bins, modes %v", withheld, modes)
				}
			})
		}
	}
}
