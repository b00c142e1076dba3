package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
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
// tables as published: the default experiment config, the predictors
// the engine runs, the overhead the engine charges.
func TestChapter3Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("default-config Chapter 3 runs are slow")
	}
	run := func(id string) *Result {
		t.Helper()
		res, err := Run(id, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	num := func(cell string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Table 3.3: average error over the queries, mlr < slr < ewma.
	var ewma, slr, mlr float64
	for _, row := range run("tab3.3").Tables[0].Rows {
		ewma, slr, mlr = ewma+num(row[1]), slr+num(row[3]), mlr+num(row[5])
	}
	if !(mlr < slr && slr < ewma) {
		t.Errorf("tab3.3 error sums: mlr %.4f, slr %.4f, ewma %.4f; want mlr < slr < ewma", mlr, slr, ewma)
	}

	// Table 3.4: extraction > fcbf > mlr, the whole below the paper's.
	phase := map[string]float64{}
	for _, row := range run("tab3.4").Tables[0].Rows {
		phase[row[0]] = num(row[1])
	}
	if fe, fcbf, fit := phase["feature extraction"], phase["fcbf"], phase["mlr"]; !(fe > fcbf && fcbf > fit) {
		t.Errorf("tab3.4 overheads: extraction %.2f%%, fcbf %.2f%%, mlr %.2f%%; want extraction > fcbf > mlr", fe, fcbf, fit)
	}
	if total := phase["total"]; total >= 10.97 {
		t.Errorf("tab3.4 total overhead %.2f%%, want below the paper's 10.97%%", total)
	}

	// Figure 3.7: CESCA-II mean MLR error below 2 %.
	f := run("fig3.7").Figures[1]
	if f.ID != "fig3.7b" || f.Series[0].Name != "average" {
		t.Fatalf("fig3.7's second figure is %s/%s, want the CESCA-II average", f.ID, f.Series[0].Name)
	}
	if e := stats.Mean(f.Series[0].Y); e >= 0.02 {
		t.Errorf("fig3.7 CESCA-II mean error %.2f%%, want below 2%%", 100*e)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run("fig2.2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig2.2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	Render(&ba, a)
	Render(&bb, b)
	if ba.String() != bb.String() {
		t.Fatal("same config produced different output")
	}
}
