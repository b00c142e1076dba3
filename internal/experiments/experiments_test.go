package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

func quickCfg() Config {
	return Config{Seed: 1, Scale: 0.05, Dur: 8 * time.Second, Quick: true}
}

func TestRegistryNonEmpty(t *testing.T) {
	ids := IDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	titles := Titles()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
		if titles[id] == "" {
			t.Fatalf("experiment %q has no title", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestAllExperimentsRun executes every registered experiment at a small
// scale and checks the outputs are well-formed and renderable. This is
// the repository's end-to-end regression net for the whole evaluation.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, quickCfg())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(res.Tables) == 0 && len(res.Figures) == 0 {
				t.Fatal("experiment produced no tables or figures")
			}
			for _, tb := range res.Tables {
				if len(tb.Columns) == 0 {
					t.Errorf("table %s has no columns", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
					}
				}
			}
			for _, f := range res.Figures {
				for _, s := range f.Series {
					if len(s.X) != len(s.Y) {
						t.Errorf("figure %s series %s: x/y length mismatch", f.ID, s.Name)
					}
				}
			}
			var buf bytes.Buffer
			Render(&buf, res)
			if !strings.Contains(buf.String(), res.ID) {
				t.Error("render output missing experiment id")
			}
		})
	}
}

// TestChapter3Claims pins the qualitative claims of Chapter 3 on the
// numbers its tables are rendered from: the default experiment config,
// the predictors the engine runs, the overhead the engine charges.
func TestChapter3Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("default-config Chapter 3 runs are slow")
	}
	cfg := Config{}.withDefaults()

	// Table 3.3: average error over the queries, mlr < slr < ewma.
	runs := tab33Runs(cfg)
	sum := map[string]float64{}
	for _, m := range tab33Methods {
		for _, errs := range runs[m].Err {
			sum[m] += stats.Mean(errs)
		}
	}
	if mlr, slr, ewma := sum["mlr"], sum["slr"], sum["ewma"]; !(mlr < slr && slr < ewma) {
		t.Errorf("tab3.3 error sums: mlr %.4f, slr %.4f, ewma %.4f; want mlr < slr < ewma", mlr, slr, ewma)
	}

	// Table 3.4: extraction > fcbf > mlr, the whole below the paper's.
	o := predictionOverhead(cfg)
	if !(o.extraction > o.fcbf && o.fcbf > o.mlr) {
		t.Errorf("tab3.4 overheads: extraction %.2f%%, fcbf %.2f%%, mlr %.2f%%; want extraction > fcbf > mlr",
			100*o.extraction, 100*o.fcbf, 100*o.mlr)
	}
	if o.total >= 0.1097 {
		t.Errorf("tab3.4 total overhead %.2f%%, want below the paper's 10.97%%", 100*o.total)
	}

	// Figure 3.7: CESCA-II mean MLR error below 2 %.
	f := errOverTime(cfg, "fig3.7b", "", source(trace.CESCA2, cfg, cfg.dur(30*time.Second)))
	if e := stats.Mean(f.Series[0].Y); e >= 0.02 {
		t.Errorf("fig3.7 CESCA-II mean error %.2f%%, want below 2%%", 100*e)
	}
}

// TestChapter4And6Claims pins the claims of Chapters 4 and 6 that hold
// at the default experiment config: under a SYN flood the flows query
// errs least with flow sampling, more with packet sampling and most
// without shedding (Figure 4.5), and at 2x overload custom shedding
// beats flow sampling, which beats packet sampling, for the
// p2p-detector (Figure 6.2).
func TestChapter4And6Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("default-config runs are slow")
	}
	cfg := Config{}.withDefaults()

	r := runSYNFlood(cfg)
	if flow, pkt, none := stats.Mean(r.errFlow), stats.Mean(r.errPkt), stats.Mean(r.errNone); !(flow < pkt && pkt < none) {
		t.Errorf("fig4.5 mean error: flow %.2f%%, packet %.2f%%, none %.2f%%; want flow < packet < none",
			100*flow, 100*pkt, 100*none)
	}

	errs := map[string]float64{}
	for _, m := range runP2PMethods(cfg) {
		errs[m.name] = m.err
	}
	if c, f, p := errs["custom"], errs["flow-sampling"], errs["packet-sampling"]; !(c < f && f < p) {
		t.Errorf("fig6.2 p2p-detector error: custom %.2f%%, flow %.2f%%, packet %.2f%%; want custom < flow < packet",
			100*c, 100*f, 100*p)
	}
}

// TestAccuracySumsInQueryOrder holds every sum over queries to the run's
// query order. The values make a float sum depend on its order (1e16 + 1
// rounds back to 1e16), so summing in map order, which Go randomises,
// would give different averages from one call to the next.
func TestAccuracySumsInQueryOrder(t *testing.T) {
	order := []string{"a", "b", "c", "d", "b"} // a late arrival repeats a name
	vals := []float64{1e16, 1, -1e16, 1}
	per := map[string][]float64{}
	var want float64
	for i, v := range vals {
		per[order[i]] = []float64{v}
		want += v
	}
	want /= float64(len(vals))
	if other := (vals[2] + vals[0] + vals[1] + vals[3]) / 4; other == want {
		t.Fatalf("values not order-dependent: %v either way", want)
	}
	for i := 0; i < 100; i++ {
		a := newAccuracy(order, per)
		if avg, min, _ := a.mean(); avg != want || min != -1e16 {
			t.Fatalf("call %d: mean() = %v, %v; want %v, -1e16", i, avg, min, want)
		}
		if got := a.overTime(); len(got) != 1 || got[0] != want {
			t.Fatalf("call %d: overTime() = %v; want [%v]", i, got, want)
		}
	}
}

// TestRunDeterministic renders experiments twice at one config and
// requires the same bytes: fig2.2 and, through accuracy.mean,
// ablation-strategy.
func TestRunDeterministic(t *testing.T) {
	for _, id := range []string{"fig2.2", "ablation-strategy"} {
		var out [2]bytes.Buffer
		for i := range out {
			res, err := Run(id, quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			Render(&out[i], res)
		}
		if out[0].String() != out[1].String() {
			t.Fatalf("%s: same config produced different output", id)
		}
	}
}
