#!/usr/bin/env bash
# How much code is there?  scripts/loc.sh [-v] [dir] | scripts/loc.sh --vs <rev>
#
# Non-test, non-comment lines: per file, the lines before the first
# column-0 `#[cfg(test)]` that are neither blank nor start with `//`
# (after indentation), summed over crates/*/src and src/bin/onepass.rs of
# [dir] (default: this checkout). Prints the total; with -v, one line per
# file first. A simplicity PR's line claim is this number at the parent
# minus this number at the change: `--vs <rev>` prints that difference
# against a git revision, one `before after delta file` row per file whose
# count moved, then the totals.
set -euo pipefail

# One `count file` line per file of directory $1, then the total.
count() {
    (cd "$1" && find crates/*/src src/bin/onepass.rs -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n[FILENAME]++; total++ }
        END {
            for (f in n) printf "%6d %s\n", n[f], f | "sort -k2"
            close("sort -k2")
            print total
        }')
}

here="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--vs" ]; then
    rev="${2:?usage: scripts/loc.sh --vs <rev>}"
    before="$(mktemp -d)"
    trap 'rm -rf "$before"' EXIT
    git -C "$here" archive "$rev" crates src/bin/onepass.rs | tar -x -C "$before"
    # Rows of the old tree first: a file's first row is its `before`
    # unless the file is new.
    { count "$before" | sed 's/^/b /'; count "$here" | sed 's/^/a /'; } | awk '
        NF == 2 { total[$1] = $2; next }
        { n[$1, $3] = $2; files[$3] = 1 }
        END {
            for (f in files) {
                b = n["b", f] + 0; a = n["a", f] + 0
                if (a != b) printf "%6d %6d %+6d %s\n", b, a, a - b, f | "sort -k4"
            }
            close("sort -k4")
            printf "%6d %6d %+6d total\n", total["b"], total["a"], total["a"] - total["b"]
        }'
    exit
fi

verbose=0
[ "${1:-}" = "-v" ] && { verbose=1; shift; }
if [ "$verbose" = 1 ]; then
    count "${1:-$here}"
else
    count "${1:-$here}" | tail -n 1
fi
