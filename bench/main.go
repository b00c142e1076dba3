// Command bench is the repository's benchmark: four workloads over the
// load shedding monitor, end-to-end metrics with known run-to-run noise,
// and a traced run that prices every layer from outside. See README.md.
//
//	bash bench/run.sh                       # all four workloads, tracing off
//	bash bench/run.sh --trace 1             # the per-layer run
//	bash bench/run.sh --workload overload2x --seed 2 --seconds 20 --trace 0
//	bash bench/run.sh --aa 5                # five sets of the same code: the noise
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	// lsd is started with a parent-death signal, which the kernel ties
	// to the starting thread: keep main on the thread that lives as long
	// as the process.
	runtime.LockOSThread()
	var (
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs (2 is the hold-out)")
		names    = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans written to bench/out/")
		aa       = flag.Int("aa", 0, "A/A mode: run N complete sets of the same code and report each metric's spread")
		varySeed = flag.Bool("vary-seed", false, "with -aa: give every set its own seed, as the acceptance procedure does")
		quick    = flag.Bool("quick", false, "tiny sizes for the package's test; the numbers mean nothing")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
		root     = flag.String("root", ".", "repository root")
	)
	flag.Parse()
	if _, err := os.Stat(*root + "/cmd/lsd"); err != nil {
		fatal(fmt.Errorf("-root %q is not the repository root: %v", *root, err))
	}
	if *quick {
		kernelIters /= 10
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *traceOn != 0, quick: *quick, root: *root}
	sel, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}

	full := fullReport{Host: readHost(), Seed: o.seed, Seconds: *seconds, Workloads: sel, EndToEnd: endToEnd, PerLayer: perLayer}
	ok := true
	if *aa > 0 {
		ok = runAA(o, sel, *aa, *varySeed, &full)
	} else {
		for _, w := range sel {
			rep, err := w.run(o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			full.Runs = append(full.Runs, rep)
			printReport(rep, full.Host)
			ok = ok && rep.correct()
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var sel []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.Name == n {
				sel, found = append(sel, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return sel, nil
}

// fullReport is what -out writes.
type fullReport struct {
	Host      hostFacts   `json:"host"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Workloads []workload  `json:"workloads"`
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Runs      []*report   `json:"runs"`
	AA        []aaRow     `json:"aa,omitempty"`
}

// defsFor returns the metrics a run reports: end-to-end with tracing
// off, per-layer with tracing on.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printReport prints one run for a reader, then — as the last line —
// the result object the driver parses.
func printReport(r *report, h hostFacts) {
	fmt.Printf("== %s  seed %d  trace %v  (%s, %d cpu, GOMAXPROCS %d, %s, kernel %s, governor %s)\n",
		r.Workload, r.Seed, r.Traced, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Governor)
	for _, d := range defsFor(r.Traced) {
		line := fmt.Sprintf("  %-44s %16.6g %-8s %s is better", d.Name, r.Metrics[d.Name], d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", may worsen by %.2f", d.Bound)
		}
		fmt.Println(line)
	}
	var keys []string
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("  samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.Samples[k])
	}
	fmt.Printf("\n  attempted %d packets, failed %d\n", r.Attempted, r.Failed)
	if r.HostSpeed > 0 {
		fmt.Printf("  times are at nominal host speed (median factor %.3f), sizes per nominal-size window; as measured:", r.HostSpeed)
		for _, d := range endToEnd {
			if v, ok := r.Raw[d.Name]; ok {
				fmt.Printf(" %s=%.6g", d.Name, v)
			}
		}
		fmt.Println()
	}
	if r.Digest != "" {
		fmt.Printf("  digest %s\n", r.Digest)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %s %s %s\n", status, c.Name, c.Detail)
	}
	fmt.Println(resultLine(r))
}

// resultLine is the contract with the driver: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func resultLine(r *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Traced) {
		res.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// aaRow is one metric of one workload across the sets of an A/A run.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound,omitempty"`
	OK       bool      `json:"ok"`
}

// runAA runs n complete sets of the same code and prints, per metric
// and workload, the median, quartiles and spread (interquartile range
// over median — the acceptance procedure's estimator). It fails when an
// end-to-end metric's spread exceeds half its bound, or when a digest
// differs between sets of the same seed.
func runAA(o options, sel []workload, n int, varySeed bool, full *fullReport) bool {
	ok := true
	vals := map[string][]float64{}
	digests := map[string]string{}
	for set := 0; set < n; set++ {
		so := o
		if varySeed {
			so.seed = o.seed + uint64(set)
		}
		for _, w := range sel {
			rep, err := w.run(so)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			full.Runs = append(full.Runs, rep)
			fmt.Fprintf(os.Stderr, "set %d/%d %s: %s\n", set+1, n, w.Name, resultLine(rep))
			if !rep.correct() {
				ok = false
				printReport(rep, full.Host)
			}
			for _, d := range defsFor(o.traced) {
				k := w.Name + "\x00" + d.Name
				vals[k] = append(vals[k], rep.Metrics[d.Name])
			}
			if !varySeed && rep.Digest != "" {
				if prev, seen := digests[w.Name]; seen && prev != rep.Digest {
					fmt.Printf("FAIL %s: digest differs between sets: %s vs %s\n", w.Name, prev, rep.Digest)
					ok = false
				}
				digests[w.Name] = rep.Digest
			}
		}
	}
	fmt.Printf("%-14s %-44s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range sel {
		for _, d := range defsFor(o.traced) {
			v := vals[w.Name+"\x00"+d.Name]
			q1, q3 := quartiles(v)
			row := aaRow{w.Name, d.Name, v, stats.Median(v), q1, q3, spread(v), d.Bound, true}
			if d.Bound > 0 && d.Name != "setup_s" && row.Spread > d.Bound/2 {
				row.OK, ok = false, false
			}
			full.AA = append(full.AA, row)
			mark := ""
			if !row.OK {
				mark = "  FAIL: spread above half the bound"
			}
			fmt.Printf("%-14s %-44s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", w.Name, d.Name, row.Median, q1, q3, row.Spread, d.Bound, mark)
		}
	}
	return ok
}
