// Command lsrepro regenerates the tables and figures of the paper's
// evaluation. Each experiment is addressed by the identifier used in
// DESIGN.md:
//
//	lsrepro -list
//	lsrepro -exp fig4.1
//	lsrepro -exp all -scale 0.2 -dur 2m
//
// Output is text: tables as aligned columns, figures as downsampled x/y
// listings suitable for replotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

// define declares lsrepro's flags on fs: the experiment id, -list, and
// the experiments.Config every run reads.
func define(fs *flag.FlagSet) (exp *string, list *bool, cfg *experiments.Config) {
	cfg = new(experiments.Config)
	fs.Uint64Var(&cfg.Seed, "seed", 1, "base random seed")
	fs.Float64Var(&cfg.Scale, "scale", 0.1, "traffic rate scale vs the paper's rates")
	fs.DurationVar(&cfg.Dur, "dur", 60*time.Second, "virtual duration per run")
	fs.BoolVar(&cfg.Quick, "quick", false, "shrink parameter sweeps")
	return fs.String("exp", "", "experiment id (see -list), or 'all'"), fs.Bool("list", false, "list experiment ids and exit"), cfg
}

func main() {
	exp, list, cfg := define(flag.CommandLine)
	flag.Parse()

	if *list || *exp == "" {
		titles := experiments.Titles()
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-11s %s\n", id, titles[id])
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		res, err := experiments.Run(id, *cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsrepro:", err)
			os.Exit(1)
		}
		experiments.Render(os.Stdout, res)
	}
}
