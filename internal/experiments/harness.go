// Package experiments contains one runnable reproduction per table and
// figure of the thesis evaluation. Each experiment is registered under
// the identifier used in DESIGN.md ("fig4.1", "tab3.2", ...) and
// produces tables and/or series that mirror the rows and curves the
// paper reports. cmd/lsrepro renders them as text, and pkg/loadshed's
// BenchmarkExperiments runs each one as a sub-benchmark.
//
// The experiments share one skeleton (scenario.go): a scenario names
// the traffic, the queries and the probe seed; its methods size the
// capacity, run the lossless reference, run each compared system and
// score it, and sweepK runs the average/minimum-over-K comparison of
// Chapters 5 and 6. Each experiment computes its numbers through it
// and renders its tables and figures from them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Config scales an experiment run. Zero values select defaults chosen
// so the full suite completes in minutes on a laptop; Scale and Dur can
// be raised toward the paper's native traffic rates and durations.
type Config struct {
	Seed  uint64        // base seed; defaults to 1
	Scale float64       // traffic rate multiplier vs the paper's rates (default 0.1)
	Dur   time.Duration // per-run virtual duration (default 60 s)
	Quick bool          // shrink sweeps for benchmark use
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Dur == 0 {
		c.Dur = 60 * time.Second
	}
	return c
}

// dur returns the configured duration, halved in quick mode and bounded
// below by min.
func (c Config) dur(min time.Duration) time.Duration {
	d := c.Dur
	if c.Quick {
		d /= 2
	}
	if d < min {
		d = min
	}
	return d
}

// Table is a paper-style table: rows of pre-formatted cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a paper-style figure: one or more series over a labelled
// plane.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Result is everything an experiment produced.
type Result struct {
	ID      string
	Title   string
	Tables  []Table
	Figures []Figure
	Notes   []string
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

type entry struct {
	id     string
	title  string
	runner Runner
}

var registry []entry

// register adds an experiment; called from init functions of the
// per-chapter files.
func register(id, title string, r Runner) {
	registry = append(registry, entry{id: id, title: title, runner: r})
}

// IDs returns all experiment identifiers in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Titles maps experiment IDs to their one-line descriptions.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			res, err := e.runner(cfg.withDefaults())
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			res.ID = e.id
			if res.Title == "" {
				res.Title = e.title
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (see IDs())", id)
}

// Render writes a result as aligned text.
func Render(w io.Writer, r *Result) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, t := range r.Tables {
		fmt.Fprintf(w, "\n-- %s: %s --\n", t.ID, t.Title)
		renderTable(w, t)
	}
	for _, f := range r.Figures {
		fmt.Fprintf(w, "\n-- %s: %s (%s vs %s) --\n", f.ID, f.Title, f.YLabel, f.XLabel)
		renderFigure(w, f)
	}
	fmt.Fprintln(w)
}

func renderTable(w io.Writer, t Table) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	for _, row := range t.Rows {
		sb.Reset()
		for i, cell := range row {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", width, cell)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

// renderFigure prints each series as a compact x/y listing, downsampled
// to at most maxPoints rows so time series stay readable.
func renderFigure(w io.Writer, f Figure) {
	const maxPoints = 24
	for _, s := range f.Series {
		fmt.Fprintf(w, "series %s (%d points)\n", s.Name, len(s.X))
		n := len(s.X)
		step := 1
		if n > maxPoints {
			step = (n + maxPoints - 1) / maxPoints
		}
		for i := 0; i < n; i += step {
			fmt.Fprintf(w, "  %12.4g  %12.6g\n", s.X[i], s.Y[i])
		}
	}
}

// fmtF formats a float for table cells.
func fmtF(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// fmtPct formats a fraction as a percentage cell.
func fmtPct(v float64) string {
	return fmt.Sprintf("%.2f%%", v*100)
}
