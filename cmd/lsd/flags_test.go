package main

import (
	"flag"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// parse runs lsd's flag handling on args in process: everything main
// does before a mode starts measuring.
func parse(args []string) (mode, error) {
	o := new(options)
	fs := flag.NewFlagSet("lsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.define(fs)
	if err := fs.Parse(args); err != nil {
		return mode{}, err
	}
	return o.selectMode(fs)
}

// selectors are arguments that select each mode.
var selectors = map[string][]string{
	"feed":        {"-feed", "udp://127.0.0.1:9"},
	"coordinator": {"-coordinator", "127.0.0.1:0"},
	"worker":      {"-worker", "127.0.0.1:9"},
	"serve":       {"-serve", "127.0.0.1:0"},
	"stream":      {"-stream"},
	"cluster":     {"-shards", "3"},
	"run":         nil,
}

// TestModeFlags: each mode accepts every flag it reads and rejects,
// before anything is measured, every flag it does not read, naming the
// flag and the mode. Each flag is given at its default value, so only
// the rule can reject it.
func TestModeFlags(t *testing.T) {
	all := flag.NewFlagSet("lsd", flag.ContinueOnError)
	new(options).define(all)
	read := map[string]bool{}
	for _, m := range modes {
		sel, ok := selectors[m.name]
		if !ok {
			t.Fatalf("no selector arguments for mode %s", m.name)
		}
		names := strings.Fields(m.flags)
		for _, name := range names {
			read[name] = true
			if all.Lookup(name) == nil {
				t.Errorf("mode %s reads -%s, which lsd does not define", m.name, name)
			}
		}
		all.VisitAll(func(f *flag.Flag) {
			if slices.Contains(sel, "-"+f.Name) {
				return
			}
			args := append(slices.Clone(sel), "-"+f.Name+"="+f.DefValue)
			got, err := parse(args)
			if slices.Contains(names, f.Name) {
				if err != nil || got.name != m.name {
					t.Errorf("lsd %s: mode %q, error %v; want %s mode to accept it", strings.Join(args, " "), got.name, err, m.name)
				}
			} else if err == nil || !strings.Contains(err.Error(), "-"+f.Name+" ") || !strings.Contains(err.Error(), m.name+" mode") {
				t.Errorf("lsd %s: error %v; want one naming -%s and %s mode", strings.Join(args, " "), err, f.Name, m.name)
			}
		})
	}
	n := 0
	all.VisitAll(func(f *flag.Flag) {
		n++
		if !read[f.Name] {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
	if n != 33 {
		t.Errorf("lsd defines %d flags, want the 33 it has always had", n)
	}
}

// TestCheckpointingWorkerNeedsCustomOff: a worker that checkpoints with
// custom shedding on (the default) is refused before it starts, since
// every checkpoint and drain of it would fail; -custom=false runs.
func TestCheckpointingWorkerNeedsCustomOff(t *testing.T) {
	worker := []string{"-worker", "127.0.0.1:9", "-checkpoint-every", "2"}
	for _, args := range [][]string{worker, append(slices.Clone(worker), "-custom=true")} {
		if _, err := parse(args); err == nil || !strings.Contains(err.Error(), "-custom=false") {
			t.Errorf("lsd %s: error %v, want a refusal naming -custom=false", strings.Join(args, " "), err)
		}
	}
	for _, args := range [][]string{append(slices.Clone(worker), "-custom=false"), {"-worker", "127.0.0.1:9"}} {
		if m, err := parse(args); err != nil || m.name != "worker" {
			t.Errorf("lsd %s: mode %q, error %v; want worker mode", strings.Join(args, " "), m.name, err)
		}
	}
}

// TestDocumentedInvocations: every lsd command line in README.md, in
// this package's doc comment and in CI is accepted under the mode it
// selects, as are the invocations TestEndToEnd and the live_serve
// benchmark make. Together the documented lines cover every mode.
func TestDocumentedInvocations(t *testing.T) {
	command := regexp.MustCompile("(?m)(?:go run \\./cmd/lsd|^//\tlsd)((?: [^`#&\n]*)?)")
	continuation := regexp.MustCompile(`\\\n\s*`)
	var lines []string
	for _, path := range []string{"../../README.md", "main.go", "../../.github/workflows/ci.yml"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(continuation.ReplaceAllString(string(b), " "), -1) {
			lines = append(lines, m[1])
		}
	}
	documented := len(lines)
	// The $WORDs TestEndToEnd fills in are all string flag values, so
	// its invocations parse as they stand.
	lines = slices.AppendSeq(lines, maps.Values(invocations))
	lines = append(lines,
		// bench/live.go
		"-serve 127.0.0.1:0 -ingest unix:///tmp/in.sock -capacity 250000 -workers 1",
	)
	covered := map[string]bool{}
	for i, line := range lines {
		args := strings.Fields(line)
		m, err := parse(args)
		if err != nil {
			t.Errorf("lsd %s: %v", strings.Join(args, " "), err)
			continue
		}
		if i < documented {
			t.Logf("%-11s lsd %s", m.name, strings.Join(args, " "))
			covered[m.name] = true
		}
	}
	if documented < 10 {
		t.Fatalf("found %d documented lsd lines, want the README's and the doc comment's", documented)
	}
	for _, m := range modes {
		if !covered[m.name] {
			t.Errorf("no documented lsd line runs %s mode", m.name)
		}
	}
}

// TestClusterKeyFile: -cluster-key-file yields the key without its
// surrounding whitespace, and a file that is missing or holds no key is
// refused rather than read as "no authentication".
func TestClusterKeyFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if key, err := clusterKey(write("key", "s3cret\n")); err != nil || key != "s3cret" {
		t.Fatalf("key file read as %q (%v), want s3cret", key, err)
	}
	if key, err := clusterKey(""); err != nil || key != "" {
		t.Fatalf("no key file read as %q (%v), want no key", key, err)
	}
	for _, path := range []string{write("empty", " \n"), dir + "/missing"} {
		if key, err := clusterKey(path); err == nil {
			t.Errorf("key file %s accepted as %q", path, key)
		}
	}
}
