#!/usr/bin/env bash
# Prints the size numbers CHANGES.md tracks per PR (ROADMAP,
# consolidation item). The bench/ module is never counted:
#
#   non-test LOC       non-blank, non-comment-only lines of the program
#   test LOC           the same rule over the *_test.go files
#   exported symbols   top-level exported funcs, methods, types, consts
#                      and vars (struct fields are not counted)
#   Config fields      the settable fields of loadshed.Config, the
#                      engine's option surface
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

files() {
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
}
tests() {
	find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
}
count() { xargs grep -hv '^\s*//' | grep -cv '^\s*$'; }

loc=$(files | count)
testloc=$(tests | count)

# Sources are gofmt'd, so a top-level declaration starts in column 0
# and the members of a const/var/type group sit behind exactly one tab.
symbols=$(files | xargs awk '
	FNR == 1                                   { group = 0 }
	/^(const|var|type) \($/                    { group = 1; next }
	group && /^\)/                             { group = 0; next }
	group && /^\t[A-Z][A-Za-z0-9_]*/           { n++; next }
	/^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[(\[]/ { n++; next }
	/^(const|var|type) [A-Z][A-Za-z0-9_]*/     { n++ }
	END                                        { print n + 0 }
')

# Inside the gofmt'd struct a field line is one tab, a name, a space.
fields=$(awk '
	/^type Config struct \{$/      { inside = 1; next }
	inside && /^\}/                { exit }
	inside && /^\t[A-Z][A-Za-z0-9_]* / { n++ }
	END                           { print n + 0 }
' pkg/loadshed/engine.go)

echo "non-test LOC:     $loc"
echo "test LOC:         $testloc"
echo "exported symbols: $symbols"
echo "Config fields:    $fields"
