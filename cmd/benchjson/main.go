// Command benchjson runs the repository's benchmarks and writes the
// results as JSON, so every PR can commit a machine-readable perf
// snapshot (BENCH_<n>.json) and CI can gate on allocation regressions
// without a flaky wall-clock threshold.
//
// Usage:
//
//	go run ./cmd/benchjson                       # micro + pipeline set -> stdout
//	go run ./cmd/benchjson -out BENCH_5.json     # commit a new PR's snapshot
//	go run ./cmd/benchjson -bench 'Micro' -benchtime 2s -out bench.json
//	go run ./cmd/benchjson -maxallocs 'BenchmarkMicroFeatureExtraction=0'
//	go run ./cmd/benchjson -compare BENCH_5.json -regress-allocs 0.1
//
// Each PR commits its snapshot under a fresh BENCH_<n>.json (never
// overwrite an earlier PR's file — the sequence is the perf history).
//
// The -maxallocs gate takes comma-separated name=N pairs (names match
// the benchmark function, without the -cpus suffix) and exits nonzero
// when any matching benchmark reports more than N allocs/op — the
// allocation gate CI runs on the extraction fast path.
//
// The -compare gate loads an earlier snapshot, prints the per-benchmark
// ns/op, B/op, allocs/op and pkts/s deltas, and exits nonzero when any
// benchmark regresses beyond the configured fractional thresholds
// (-regress-ns, -regress-b, -regress-allocs, -regress-pkts; a negative
// threshold disables that dimension — the wall-clock dimensions ns/op
// and pkts/s are disabled by default because shared CI runners make
// them flaky, while allocation counts are deterministic). pkts/s is a
// higher-is-better custom metric, so its threshold bounds the allowed
// fractional throughput *drop*.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line, decoded.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed snapshot format.
type File struct {
	Tool       string   `json:"tool"`
	Go         string   `json:"go"`
	Bench      string   `json:"bench"`
	Benchtime  string   `json:"benchtime"`
	Packages   []string `json:"packages"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "BenchmarkMicro|BenchmarkPipelineSaturation|BenchmarkStreamLongRun|BenchmarkRunLongRun|BenchmarkCluster$|BenchmarkExtract$|BenchmarkMultiRes|BenchmarkHashAgg",
		"benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "passed to go test -benchtime")
	count := flag.Int("count", 1, "passed to go test -count")
	out := flag.String("out", "-", "output JSON path (default - writes to stdout; commit snapshots as BENCH_<n>.json, one per PR)")
	maxallocs := flag.String("maxallocs", "", "comma-separated name=N allocation gates (fail if allocs/op exceed N)")
	compare := flag.String("compare", "", "earlier snapshot to diff against; prints deltas and gates on the -regress-* thresholds")
	regressNs := flag.Float64("regress-ns", -1, "max allowed fractional ns/op regression vs -compare (negative disables)")
	regressB := flag.Float64("regress-b", 0.35, "max allowed fractional B/op regression vs -compare (negative disables)")
	regressAllocs := flag.Float64("regress-allocs", 0.10, "max allowed fractional allocs/op regression vs -compare (negative disables)")
	regressPkts := flag.Float64("regress-pkts", -1, "max allowed fractional pkts/s drop vs -compare (higher is better; negative disables)")
	pkgs := flag.String("pkgs", "./pkg/loadshed,./internal/bitmap,./internal/hash,./internal/features", "comma-separated packages to benchmark")
	flag.Parse()

	pkgList := strings.Split(*pkgs, ",")
	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	args = append(args, pkgList...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s", err, buf.String())
		os.Exit(1)
	}

	results := parse(buf.String())
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines in go test output:\n%s", buf.String())
		os.Exit(1)
	}

	f := File{
		Tool:       "cmd/benchjson",
		Go:         runtime.Version(),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Packages:   pkgList,
		Benchmarks: results,
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	} else {
		fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(results), *out)
	}

	failed := gate(results, *maxallocs)
	if *compare != "" {
		old, err := loadSnapshot(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -compare: %v\n", err)
			os.Exit(1)
		}
		if compareSnapshots(results, old, *regressNs, *regressB, *regressAllocs, *regressPkts) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadSnapshot reads a committed BENCH_<n>.json.
func loadSnapshot(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// regressEps absorbs quantization at tiny baselines: a benchmark that
// reported 0 allocs/op may drift to a fraction of one without that
// being a meaningful regression, and B/op jitters by a few bytes.
const (
	epsNs     = 50.0
	epsB      = 64.0
	epsAllocs = 1.0
)

// compareSnapshots prints the per-benchmark deltas against old and
// applies the fractional regression thresholds (negative = dimension
// disabled). It returns true when any gate fails. Benchmarks present
// only on one side are reported but never fail the gate — the set
// evolves PR to PR. pkts/s is higher-is-better: its delta column only
// appears for benchmarks that report the metric, and its gate fires on
// a fractional *drop* beyond tPkts.
func compareSnapshots(results []Result, old *File, tNs, tB, tAllocs, tPkts float64) bool {
	prev := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		prev[r.Name] = r
	}
	failed := false
	fmt.Printf("benchjson: comparing against %s (%s)\n", old.Tool, old.Go)
	fmt.Printf("%-42s %14s %14s %14s %14s\n", "benchmark", "ns/op", "B/op", "allocs/op", "pkts/s")
	check := func(name, dim string, now, was, thresh, eps float64) string {
		delta := fmtDelta(now, was)
		if thresh >= 0 && now > was*(1+thresh)+eps {
			failed = true
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: %s regressed %v -> %v (limit +%.0f%%)\n",
				name, dim, was, now, thresh*100)
			delta += "!"
		}
		return delta
	}
	for _, r := range results {
		p, ok := prev[r.Name]
		if !ok {
			fmt.Printf("%-42s %14s %14s %14s %14s  (new)\n", r.Name, "-", "-", "-", "-")
			continue
		}
		delete(prev, r.Name)
		dNs := check(r.Name, "ns/op", r.NsPerOp, p.NsPerOp, tNs, epsNs)
		dB := check(r.Name, "B/op", r.BPerOp, p.BPerOp, tB, epsB)
		dA := check(r.Name, "allocs/op", r.AllocsPerOp, p.AllocsPerOp, tAllocs, epsAllocs)
		dP := "-"
		if now, was := r.Metrics["pkts/s"], p.Metrics["pkts/s"]; now > 0 && was > 0 {
			dP = fmtDelta(now, was)
			if tPkts >= 0 && now < was*(1-tPkts) {
				failed = true
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: pkts/s dropped %v -> %v (limit -%.0f%%)\n",
					r.Name, was, now, tPkts*100)
				dP += "!"
			}
		}
		fmt.Printf("%-42s %14s %14s %14s %14s\n", r.Name, dNs, dB, dA, dP)
	}
	for name := range prev {
		fmt.Printf("%-42s %14s %14s %14s %14s  (not run)\n", name, "-", "-", "-", "-")
	}
	return failed
}

// fmtDelta renders a now-vs-was change as a signed percentage.
func fmtDelta(now, was float64) string {
	if was == 0 {
		if now == 0 {
			return "0%"
		}
		return fmt.Sprintf("+%.4g", now)
	}
	return fmt.Sprintf("%+.1f%%", (now/was-1)*100)
}

// parse decodes `go test -bench` output: "pkg:" lines set the current
// package, benchmark lines carry an iteration count followed by
// value/unit pairs (ns/op, MB/s, B/op, allocs/op, plus any
// b.ReportMetric extras).
func parse(output string) []Result {
	var results []Result
	pkg := ""
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if after, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(after)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -cpus suffix
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: name, Pkg: pkg, Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerS = v
			case "B/op":
				r.BPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				r.Metrics[unit] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		results = append(results, r)
	}
	return results
}

// gate applies the -maxallocs thresholds; it returns true when any
// benchmark exceeds its cap (or a named benchmark never ran).
func gate(results []Result, spec string) bool {
	failed := false
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, limStr, ok := strings.Cut(pair, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: bad -maxallocs entry %q (want name=N)\n", pair)
			failed = true
			continue
		}
		lim, err := strconv.ParseFloat(limStr, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -maxallocs limit %q: %v\n", limStr, err)
			failed = true
			continue
		}
		matched := false
		for _, r := range results {
			if r.Name != name {
				continue
			}
			matched = true
			if r.AllocsPerOp > lim {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s: %v allocs/op exceeds gate of %v\n", r.Name, r.AllocsPerOp, lim)
				failed = true
			} else {
				fmt.Printf("benchjson: ok %s: %v allocs/op within gate %v\n", r.Name, r.AllocsPerOp, lim)
			}
		}
		if !matched {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL gate %s: benchmark did not run\n", name)
			failed = true
		}
	}
	return failed
}
