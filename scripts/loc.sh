#!/usr/bin/env bash
# How much code is there?  scripts/loc.sh [-v] [dir]
#
# Non-test, non-comment lines: per file, the lines before the first
# column-0 `#[cfg(test)]` that are neither blank nor start with `//`
# (after indentation), summed over crates/*/src and src/bin/onepass.rs of
# [dir] (default: this checkout). Prints the total; with -v, one line per
# file first. A simplicity PR's line claim is this number at the parent
# minus this number at the change.
set -euo pipefail

verbose=0
[ "${1:-}" = "-v" ] && { verbose=1; shift; }
cd "${1:-$(dirname "$0")/..}"

find crates/*/src src/bin/onepass.rs -name '*.rs' | sort | xargs awk -v verbose="$verbose" '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n[FILENAME]++; total++ }
    END {
        if (verbose) for (f in n) printf "%6d %s\n", n[f], f | "sort -k2"
        close("sort -k2")
        print total
    }'
