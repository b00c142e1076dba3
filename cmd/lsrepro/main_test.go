package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestDocumentedInvocations: every lsrepro command line in README.md
// and in this package's doc comment parses against lsrepro's flags, and
// every experiment id one names is "all" or one lsrepro runs.
func TestDocumentedInvocations(t *testing.T) {
	command := regexp.MustCompile("(?m)(?:go run \\./cmd/lsrepro|^//\tlsrepro)((?: [^`#&\n]*)?)")
	n := 0
	for _, path := range []string{"../../README.md", "main.go"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(string(b), -1) {
			n++
			args := strings.Fields(m[1])
			line := strings.Join(args, " ")
			fs := flag.NewFlagSet("lsrepro", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			exp, _, _ := define(fs)
			if err := fs.Parse(args); err != nil {
				t.Errorf("%s: lsrepro %s: %v", path, line, err)
				continue
			}
			if *exp != "" && *exp != "all" && !slices.Contains(experiments.IDs(), *exp) {
				t.Errorf("%s: lsrepro %s: no experiment %q", path, line, *exp)
			}
		}
	}
	if n < 4 {
		t.Fatalf("found %d documented lsrepro lines, want the README's and the doc comment's", n)
	}
}
