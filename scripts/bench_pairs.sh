#!/usr/bin/env bash
# Did this change move performance?  scripts/bench_pairs.sh <parent-rev> [workload...]
#
# Exports <parent-rev> under the git-ignored .bench_build/, then per
# workload (default: all of BENCHMARK.json's) runs ten pairs of
# `benchmark/run.sh --workload W` — parent and this working tree,
# alternating which side goes first so both see the same host — plus one
# `--trace 1` run of this tree. `bench_diff` turns the result lines into
# the verdict table (gain / regression / unresolved / unchanged per
# workload x end-to-end metric) and appends them, every run included, to
# BENCH_HISTORY.jsonl. About 7.5 minutes per workload; exit 1 on a
# regression or a larger share of failed operations.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/bench_pairs.sh <parent-rev> [workload...]" >&2; exit 2; }
rev=$(git rev-parse --short "$1^{commit}")
shift
[ $# -gt 0 ] || set -- $(sed -n '/"workloads"/,/\]/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json)

# The history's "pr" is the issue being worked on, else the commit.
pr=$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md 2>/dev/null || true)
[ -n "$pr" ] || pr=$(git describe --always --dirty)

# `git archive`, not `git worktree`: nothing to register or prune in .git.
build="$PWD/.bench_build"
rm -rf "$build/parent"
mkdir -p "$build/parent"
# `-m`: the files get the time of extraction, not of the commit, so cargo
# rebuilds the parent when <parent-rev> names an older tree than the last.
git archive "$rev" | tar -x -m -C "$build/parent"
# Building the benchmark offline rewrites its lock file: put the working
# tree's copy back however the runs end, so benchmark/ stays as found.
cp benchmark/Cargo.lock "$build/Cargo.lock.saved"
trap 'cp "$build/Cargo.lock.saved" benchmark/Cargo.lock' EXIT
runs="$build/runs.txt"
: > "$runs"

# one <label> <side> <workload> <trace>: run <side>'s checkout once (each
# side has its own target dir), keep the result line under <label>.
one() {
    local dir="$PWD" line
    [ "$2" = change ] || dir="$build/parent"
    line=$(CARGO_TARGET_DIR="$build/target-$2" bash "$dir/benchmark/run.sh" \
        --workload "$3" --trace "$4" | tail -n 1) || true
    case "$line" in
        "{"*) echo "$1 $3 $line" >> "$runs" ;;
        *) echo "bench_pairs: $1 run of $3 printed no result line" >&2; exit 2 ;;
    esac
}

for w in "$@"; do
    for k in 1 2 3 4 5 6 7 8 9 10; do
        echo "[$w] pair $k/10" >&2
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do one "$side" "$side" "$w" 0; done
    done
    echo "[$w] traced run" >&2
    one trace change "$w" 1
done

cargo run -q --release -p onepass-bench --bin bench_diff -- "$pr" "$rev" "$runs"
