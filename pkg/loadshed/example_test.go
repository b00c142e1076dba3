package loadshed_test

// The paper's scenarios, each shown through this package alone and run
// by `go test` with its exact output: `go test -run Example -v
// ./pkg/loadshed` prints them all.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/predict"
	"repro/internal/stats"
	"repro/pkg/loadshed"
)

// Three queries under a sustained 2x overload (Chapter 4). Predictive
// shedding drops no packet without control: it samples a quarter of the
// traffic on average, and the errors below are what that sampling costs
// each query against a lossless reference run.
func Example_quickstart() {
	// A deterministic 20 s synthetic trace shaped like the paper's
	// CESCA-II capture at a tenth of its rate.
	mkSrc := func() loadshed.Source {
		return loadshed.NewGenerator(loadshed.CESCA2(1, 20*time.Second, 0.1))
	}
	mkQs := func() []loadshed.Query {
		return []loadshed.Query{
			loadshed.NewCounter(loadshed.QueryConfig{}),
			loadshed.NewFlows(loadshed.QueryConfig{}),
			loadshed.NewTopK(loadshed.QueryConfig{}, 10),
		}
	}

	// Size the CPU budget so the queries need twice the cycles left
	// after the platform pays for itself.
	capacity := loadshed.CapacityForOverload(mkSrc(), mkQs(), 7, 2)
	fmt.Printf("capacity: %.3g cycles per 100ms bin\n", capacity)

	mon := loadshed.New(loadshed.Config{
		Scheme:   loadshed.Predictive,
		Capacity: capacity,
		Strategy: loadshed.MMFSPkt(),
		Seed:     7,
	}, mkQs())
	res := mon.Run(mkSrc())

	ref := loadshed.Reference(mkSrc(), mkQs(), 7)
	errs := loadshed.MeanErrors(mkQs(), res, ref)

	fmt.Printf("uncontrolled drops: %d of %d packets\n", res.TotalDrops(), res.TotalWirePkts())
	fmt.Println("mean accuracy error under 2x overload:")
	for _, q := range mkQs() {
		fmt.Printf("  %-10s %6.2f%%\n", q.Name(), errs[q.Name()]*100)
	}
	var rates float64
	for _, b := range res.Bins {
		rates += b.GlobalRate
	}
	fmt.Printf("mean sampling rate: %.2f\n", rates/float64(len(res.Bins)))
	// Output:
	// capacity: 3.64e+05 cycles per 100ms bin
	// uncontrolled drops: 0 of 62243 packets
	// mean accuracy error under 2x overload:
	//   counter     11.18%
	//   flows       22.65%
	//   top-k       14.40%
	// mean sampling rate: 0.25
}

// The §4.5.5 scenario: a spoofed SYN flood at three times the base rate
// for the middle third of the run, against a budget that fits normal
// traffic. Predictive shedding samples through the flood and drops
// nothing, with the lower mean flow-count error; the unmodified system
// (Original) loses 44,464 packets without control. Predictive's worst
// interval is the worse of the two maxima: 48.40% against 31.86%.
func Example_ddos() {
	const dur = 30 * time.Second
	target := loadshed.IPv4(147, 83, 1, 1)

	mkSrc := func() loadshed.Source {
		cfg := loadshed.CESCA1(3, dur, 0.1)
		cfg.Anomalies = []loadshed.Anomaly{
			loadshed.NewSYNFlood(dur/3, dur/3, 3*cfg.PacketsPerSec, target, 80),
		}
		return loadshed.NewGenerator(cfg)
	}
	mkQs := func() []loadshed.Query {
		return []loadshed.Query{loadshed.NewFlows(loadshed.QueryConfig{})}
	}

	// Capacity fits normal traffic with 30% headroom on the queries.
	// Platform overhead (capture + feature extraction) scales with the
	// packet rate and cannot be shed, so the budget reserves room for
	// it at flood rates, as the thesis experiment did.
	normalSrc := loadshed.NewGenerator(loadshed.CESCA1(3, dur, 0.1))
	ovh, demand := loadshed.MeasureLoad(normalSrc, mkQs(), 9)
	capacity := 4*ovh + 1.3*demand
	ref := loadshed.Reference(mkSrc(), mkQs(), 9)

	for _, scheme := range []loadshed.Scheme{loadshed.Predictive, loadshed.Original} {
		mon := loadshed.New(loadshed.Config{
			Scheme:     scheme,
			Capacity:   capacity,
			Seed:       9,
			BufferBins: 2, // a 200 ms capture buffer, like the paper's emulation
		}, mkQs())
		res := mon.Run(mkSrc())
		errs := loadshed.Errors(mkQs(), res, ref)["flows"]
		fmt.Printf("%-11s flow-count error mean %5.2f%% max %5.2f%%, drops %d\n",
			scheme, 100*stats.Mean(errs), 100*stats.Max(errs), res.TotalDrops())
	}
	// Output:
	// predictive  flow-count error mean  2.28% max 48.40%, drops 0
	// original    flow-count error mean  6.38% max 31.86%, drops 44464
}

// Chapter 5's strategies over all ten queries at 2x overload, as mean
// accuracy per query (K = 0.5: an interval below a query's minimum
// sampling rate scores 0). Under equal sampling rates (eq_srates)
// autofocus, super-sources and top-k score 0 in every interval; both
// max-min fair strategies keep them at 0.76 or better, at a small cost
// to pattern-search and trace.
func Example_fairshare() {
	const dur = 20 * time.Second
	mkSrc := func() loadshed.Source {
		return loadshed.NewGenerator(loadshed.CESCA2(5, dur, 0.1))
	}
	mkQs := func() []loadshed.Query { return loadshed.AllQueries(loadshed.QueryConfig{Seed: 5}) }

	capacity := loadshed.CapacityForOverload(mkSrc(), mkQs(), 11, 2)
	ref := loadshed.Reference(mkSrc(), mkQs(), 11)

	strategies := []loadshed.Strategy{loadshed.EqualRates(true), loadshed.MMFSCPU(), loadshed.MMFSPkt()}
	fmt.Printf("%-14s", "query")
	for _, s := range strategies {
		fmt.Printf(" %9s", s.Name())
	}
	fmt.Println()

	acc := make([]map[string][]float64, len(strategies))
	for i, s := range strategies {
		mon := loadshed.New(loadshed.Config{
			Scheme:         loadshed.Predictive,
			Capacity:       capacity,
			Strategy:       s,
			Seed:           11,
			CustomShedding: true,
		}, mkQs())
		acc[i] = loadshed.Accuracies(mkQs(), mon.Run(mkSrc()), ref, 10)
	}
	for _, q := range mkQs() {
		fmt.Printf("%-14s", q.Name())
		for i := range strategies {
			fmt.Printf(" %9.2f", stats.Mean(acc[i][q.Name()]))
		}
		fmt.Println()
	}
	// Output:
	// query          eq_srates  mmfs_cpu  mmfs_pkt
	// application         0.91      0.99      0.96
	// autofocus           0.00      0.90      0.83
	// counter             0.93      0.95      0.98
	// flows               0.84      0.93      0.83
	// high-watermark      0.85      0.90      0.85
	// p2p-detector        0.44      0.70      0.70
	// pattern-search      0.48      0.41      0.43
	// super-sources       0.00      0.90      0.76
	// top-k               0.00      0.90      0.88
	// trace               0.48      0.34      0.44
}

// Chapter 6's custom shedding at 2x overload. A compliant p2p-detector
// sheds its own load and stays in custom mode. A selfish clone that
// ignores shed requests is policed, yet still takes three quarters of
// the query cycles, and the bystander counter's error rises from 4.56%
// to 16.62% beside it.
func Example_customshed() {
	const dur = 20 * time.Second
	mkSrc := func() loadshed.Source {
		cfg := loadshed.UPC2(13, dur, 0.1)
		cfg.P2PFrac = 0.15
		return loadshed.NewGenerator(cfg)
	}
	mkQs := func(selfish bool) []loadshed.Query {
		first := loadshed.Query(loadshed.NewP2PDetector(loadshed.QueryConfig{Seed: 13}))
		if selfish {
			first = loadshed.NewSelfishP2P(loadshed.QueryConfig{Seed: 13})
		}
		return []loadshed.Query{
			first,
			loadshed.NewCounter(loadshed.QueryConfig{Seed: 13}),
			loadshed.NewFlows(loadshed.QueryConfig{Seed: 13}),
		}
	}

	capacity := loadshed.CapacityForOverload(mkSrc(), mkQs(false), 17, 2)
	ref := loadshed.Reference(mkSrc(), mkQs(false), 17)

	for _, selfish := range []bool{false, true} {
		mon := loadshed.New(loadshed.Config{
			Scheme:         loadshed.Predictive,
			Capacity:       capacity,
			Strategy:       loadshed.MMFSPkt(),
			Seed:           17,
			CustomShedding: true,
		}, mkQs(selfish))
		res := mon.Run(mkSrc())
		errs := loadshed.MeanErrors(mkQs(false), res, ref)
		if selfish {
			// The clone's answers are not the detector's; what it
			// shows is how many cycles it grabbed.
			var clone, total float64
			for _, b := range res.Bins {
				clone += b.QueryUsed[0]
				total += b.Used
			}
			fmt.Printf("selfish clone: %.1f%% of query cycles\n", 100*clone/total)
		} else {
			fmt.Printf("compliant p2p-detector: error %5.2f%%\n", 100*errs["p2p-detector"])
		}
		fmt.Printf("  counter error %5.2f%%  flows error %5.2f%%  drops %d\n",
			100*errs["counter"], 100*errs["flows"], res.TotalDrops())
		for _, st := range mon.CustomStates() {
			fmt.Printf("  %s: mode %v, correction factor %.2f\n", st.Name(), st.Mode(), st.Corr())
		}
	}
	// Output:
	// compliant p2p-detector: error 26.72%
	//   counter error  4.56%  flows error 13.09%  drops 0
	//   p2p-detector: mode custom, correction factor 1.61
	// selfish clone: 75.7% of query cycles
	//   counter error 16.62%  flows error 10.95%  drops 0
	//   p2p-detector-selfish: mode policed, correction factor 2.28
}

// Three links share one machine while an on/off DDoS swamps the first
// for the middle half of the run. A static equal split leaves the
// attacked link at a mean sampling rate of 0.28; the global mmfs_cpu
// coordinator moves the calm links' spare cycles to it, which lifts its
// rate to 0.67 and lowers every link's flow error. The attacked link's
// error is still 48.87%, and the aggregate error falls from 26.99% to
// 15.59%.
func Example_cluster() {
	const (
		dur    = 30 * time.Second
		nLinks = 3
		seed   = 7
	)
	mkShards := func() []loadshed.Shard {
		links := loadshed.AsymmetricMix(seed, dur, 0.08, nLinks)
		shards := make([]loadshed.Shard, len(links))
		for i, l := range links {
			shards[i] = loadshed.Shard{
				Name:   l.Name,
				Source: loadshed.NewGenerator(l.Config),
				Queries: []loadshed.Query{
					loadshed.NewFlows(loadshed.QueryConfig{Seed: uint64(i)}),
					loadshed.NewCounter(loadshed.QueryConfig{Seed: uint64(i)}),
				},
			}
		}
		return shards
	}

	// The calm links fit with headroom but the attacked link's flood
	// does not: absorbing it takes cycles that exist only on the others.
	var total float64
	for i, sh := range mkShards() {
		c := loadshed.MeasureCapacity(sh.Source, sh.Queries, 99)
		if i == 0 {
			c *= 0.6
		}
		total += c
	}
	fmt.Printf("machine capacity: %.3g cycles/bin shared by %d links\n", total, nLinks)

	for _, policy := range []loadshed.Strategy{nil, loadshed.MMFSCPU()} {
		res := loadshed.NewCluster(loadshed.ClusterConfig{
			Base:          loadshed.Config{Scheme: loadshed.Predictive, Strategy: loadshed.MMFSPkt(), Seed: 42},
			TotalCapacity: total,
			ShardPolicy:   policy,
		}, mkShards()).Run()

		if policy == nil {
			fmt.Println("static equal split:")
		} else {
			fmt.Printf("coordinated (%s):\n", policy.Name())
		}
		refs := mkShards()
		var errSum float64
		n := 0
		for i, sh := range res.Shards {
			ref := loadshed.Reference(refs[i].Source, refs[i].Queries, 99)
			errs := loadshed.Errors(refs[i].Queries, sh.Result, ref)["flows"]
			var rate float64
			for _, b := range sh.Result.Bins {
				rate += stats.Mean(b.Rates)
			}
			fmt.Printf("  %-11s flow error mean %5.2f%% max %6.2f%%, mean rate %.2f, drops %d\n",
				sh.Name, 100*stats.Mean(errs), 100*stats.Max(errs),
				rate/float64(len(sh.Result.Bins)), sh.Result.TotalDrops())
			for _, e := range loadshed.MeanErrors(refs[i].Queries, sh.Result, ref) {
				errSum += e
				n++
			}
		}
		fmt.Printf("  aggregate mean error %.2f%%\n", 100*errSum/float64(n))
	}
	// Output:
	// machine capacity: 1.51e+06 cycles/bin shared by 3 links
	// static equal split:
	//   ddos-link   flow error mean 70.21% max 100.00%, mean rate 0.28, drops 0
	//   calm-link1  flow error mean  6.27% max 100.00%, mean rate 0.91, drops 0
	//   calm-link2  flow error mean  4.51% max  57.80%, mean rate 0.94, drops 0
	//   aggregate mean error 26.99%
	// coordinated (mmfs_cpu):
	//   ddos-link   flow error mean 48.87% max 100.00%, mean rate 0.67, drops 0
	//   calm-link1  flow error mean  1.68% max  23.64%, mean rate 0.93, drops 0
	//   calm-link2  flow error mean  1.34% max  23.42%, mean rate 0.98, drops 0
	//   aggregate mean error 15.59%
}

// Predictive shedding when the traffic mix drifts under the model. From
// bin 80 a payload-free drift ramps up to 1.5x the base packet rate; it
// mimics the base traffic's addresses, ports and sizes, so the
// regression learns a bytes-to-cost relation that no longer holds for
// pattern-search. With the online change detector
// (Config.ChangeDetection) a verdict truncates the stale history and the
// prediction error stays a fifth of the detector-off run's after the
// ramp. The verdict at bin 64 comes before the drift: it is the
// distance test's false alarm on this seed's stationary traffic.
func Example_drift() {
	const (
		dur        = 20 * time.Second
		driftStart = 8 * time.Second
		bin        = 100 * time.Millisecond
	)
	mkSrc := func() loadshed.Source {
		cfg := loadshed.CESCA2(31, dur, 0.2)
		cfg.Anomalies = []loadshed.Anomaly{
			// Ramps over the first quarter of its span.
			loadshed.NewGradualDrift(driftStart, dur-driftStart, 1.5*cfg.PacketsPerSec),
		}
		return loadshed.NewGenerator(cfg)
	}
	mkQs := func() []loadshed.Query {
		var qs []loadshed.Query
		// pattern-search's cost is linear in payload bytes, which the
		// drift decouples from the header features.
		for _, kind := range []string{"pattern-search", "counter", "flows"} {
			q, err := loadshed.QueryByName(kind, loadshed.QueryConfig{Seed: 7})
			if err != nil {
				panic(err)
			}
			qs = append(qs, q)
		}
		return qs
	}
	run := func(detect bool) *loadshed.RunResult {
		return loadshed.New(loadshed.Config{
			Scheme:   loadshed.Predictive,
			Strategy: loadshed.MMFSPkt(),
			Seed:     99,
			// Unlimited capacity and no measurement noise: per-bin
			// prediction error is exactly model error.
			Capacity:   math.Inf(1),
			NoiseSigma: -1,
			Workers:    1,
			// A long fitting window makes the stale regime's hold visible.
			Predictor:       func() predict.Predictor { return predict.NewMLR(120, predict.DefaultThreshold) },
			ChangeDetection: detect,
		}, mkQs()).Run(mkSrc())
	}
	errAt := func(res *loadshed.RunResult, lo, hi int) float64 {
		var s float64
		for _, b := range res.Bins[lo:hi] {
			used := math.Max(b.QueryUsed[0], 1)
			s += math.Abs(b.QueryPred[0]-used) / used
		}
		return s / float64(hi-lo)
	}

	off, on := run(false), run(true)
	start := int(driftStart / bin)
	rampEnd := start + int((dur-driftStart)/4/bin)

	fmt.Printf("pattern-search prediction error (drift from bin %d, ramp ends at bin %d):\n", start, rampEnd)
	fmt.Printf("%-20s %12s %12s\n", "bins", "detector off", "detector on")
	for _, ph := range [][2]int{{start / 2, start}, {start, rampEnd}, {rampEnd, rampEnd + 40}, {rampEnd + 40, len(on.Bins)}} {
		fmt.Printf("%-20s %11.1f%% %11.1f%%\n", fmt.Sprintf("%d-%d", ph[0], ph[1]),
			100*errAt(off, ph[0], ph[1]), 100*errAt(on, ph[0], ph[1]))
	}
	for i, b := range on.Bins {
		if b.Change {
			fmt.Printf("change verdict at bin %d (score %.2f)\n", i, b.ChangeScore)
		}
	}
	// Output:
	// pattern-search prediction error (drift from bin 80, ramp ends at bin 110):
	// bins                 detector off  detector on
	// 40-80                        1.1%         1.1%
	// 80-110                      61.3%        16.4%
	// 110-150                     37.2%         7.4%
	// 150-200                     31.3%         6.6%
	// change verdict at bin 64 (score 1.01)
	// change verdict at bin 91 (score 1.19)
	// change verdict at bin 108 (score 1.41)
}
