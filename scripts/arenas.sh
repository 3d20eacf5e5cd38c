#!/usr/bin/env bash
# Where does a benchmark workload's resident memory sit among glibc's
# malloc arenas?
#   scripts/arenas.sh [--bin BENCHMARK_BINARY] [WORKLOAD [SECONDS]]
#
# Builds the repo benchmark (or takes a prebuilt `onepass-benchmark` with
# --bin, e.g. a parent checkout's), runs `--workload WORKLOAD --seconds
# SECONDS --trace 0` (default: sessionize_tcp2, 4) with a small
# LD_PRELOAD shim whose destructor calls glibc's malloc_stats() as the
# process exits, and prints per arena its system bytes (what the arena
# holds from the kernel) and in-use bytes (what live allocations occupy
# there), the totals, and the benchmark's result line. An arena whose
# system bytes far exceed its in-use bytes holds memory its threads freed
# and glibc kept: resident, but not live.
#
# The shim is C, compiled here with `cc`. glibc serves the main thread
# from arena 0 and gives a thread that finds the arenas busy a new one,
# up to eight per core on 64-bit hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=""
if [ "${1:-}" = "--bin" ]; then
    bin=$(realpath "$2")
    shift 2
fi
workload=${1:-sessionize_tcp2}
seconds=${2:-4}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ -z "$bin" ]; then
    target="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir "$target" >&2
    bin="$target/release/onepass-benchmark"
fi

cat > "$work/arenas.c" <<'EOF'
#include <malloc.h>

/* malloc_stats() writes every arena's system and in-use bytes to stderr. */
__attribute__((destructor)) static void report(void) { malloc_stats(); }
EOF
cc -O2 -shared -fPIC -o "$work/arenas.so" "$work/arenas.c"

(cd "$work" && LD_PRELOAD="$work/arenas.so" "$bin" --out-dir "$work/out" \
    --workload "$workload" --seconds "$seconds" --trace 0 \
    > "$work/stdout" 2> "$work/stderr")

awk -v workload="$workload" '
function mib(b) { return sprintf("%9.1f", b / 1048576) }
/^Arena [0-9]+:$/ { arena = $2; sub(/:$/, "", arena); order[++n] = arena; next }
/^Total \(incl\. mmap\):$/ { arena = "total"; next }
/^system bytes/ { sys[arena] = $NF; next }
/^in use bytes/ { used[arena] = $NF; next }
END {
    if (!n) { print "arenas.sh: no malloc_stats() output" > "/dev/stderr"; exit 1 }
    printf "%s: %d arenas at exit (MiB)\n%-8s %9s %9s\n", workload, n, "arena", "system", "in use"
    for (i = 1; i <= n; i++) printf "%-8s %s %s\n", order[i], mib(sys[order[i]]), mib(used[order[i]])
    printf "%-8s %s %s   (arenas plus mmap-ed blocks)\n", "total", mib(sys["total"]), mib(used["total"])
}
' "$work/stderr"
tail -n 1 "$work/stdout"
