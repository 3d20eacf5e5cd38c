#!/usr/bin/env bash
# Where does a benchmark workload's resident memory sit among glibc's
# malloc arenas, and what set glibc's thresholds?
#   scripts/arenas.sh [--bin BENCHMARK_BINARY] [WORKLOAD [SECONDS]]
#
# Builds the repo benchmark (or takes a prebuilt `onepass-benchmark` with
# --bin, e.g. a parent checkout's), runs `--workload WORKLOAD --seconds
# SECONDS --trace 0` (default: sessionize_tcp2, 4) with a small
# LD_PRELOAD shim, and prints:
#
# - per arena its system bytes (what the arena holds from the kernel) and
#   in-use bytes (what live allocations occupy there), and the totals,
#   from glibc's malloc_stats() as the process exits. An arena whose
#   system bytes far exceed its in-use bytes holds memory its threads
#   freed and glibc kept: resident, but not live.
# - the process's minor page faults, from getrusage() at exit.
# - every block of 1 MiB or more that glibc had mmapped and the program
#   freed (the chunk header's IS_MMAPPED bit), as a size histogram, and
#   the call stack of each free that set a new largest size. Freeing such
#   a block raises glibc's mmap threshold to its size (up to 32 MiB) and
#   every arena's trim threshold to twice that, for the rest of the
#   process: from then on each arena keeps that much freed memory. Start
#   an RSS question here, not from the arena count.
# - the benchmark's result line.
#
# The shim is C, compiled here with `cc`; frames in the benchmark binary
# are named with `addr2line`. glibc serves the main thread from arena 0
# and gives a thread that finds the arenas busy a new one, up to eight
# per core on 64-bit hosts.
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

cat > "$work/arenas.c" <<'SHIM'
#define _GNU_SOURCE
#include <execinfo.h>
#include <malloc.h>
#include <pthread.h>
#include <stdio.h>
#include <sys/resource.h>

/* glibc's own free, which this shim's free forwards to. */
extern void __libc_free(void *);

#define MIB (1UL << 20)
#define BUCKETS 8 /* [1,2) [2,4) ... [64,128) [128,-) MiB */
#define IS_MMAPPED 2UL

static unsigned long freed[BUCKETS], freed_bytes[BUCKETS];
static size_t largest;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int busy;

static void note(size_t size) {
    int b = 0;
    while (b + 1 < BUCKETS && size >= (MIB << (b + 1))) b++;
    __atomic_fetch_add(&freed[b], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&freed_bytes[b], size, __ATOMIC_RELAXED);
    if (size <= __atomic_load_n(&largest, __ATOMIC_RELAXED)) return;
    pthread_mutex_lock(&lock);
    if (size > largest) {
        void *frames[48];
        int n;
        __atomic_store_n(&largest, size, __ATOMIC_RELAXED);
        busy = 1; /* backtrace may allocate: those frees pass straight through */
        n = backtrace(frames, 48);
        dprintf(2, "mmfree: largest %zu\n", size);
        backtrace_symbols_fd(frames, n, 2);
        dprintf(2, "mmfree: end\n");
        busy = 0;
    }
    pthread_mutex_unlock(&lock);
}

void free(void *p) {
    if (p && !busy) {
        size_t head = ((size_t *)p)[-1];
        size_t size = head & ~7UL;
        if ((head & IS_MMAPPED) && size >= MIB) note(size);
    }
    __libc_free(p);
}

/* The first backtrace() loads libgcc_s; do that before a free needs it. */
__attribute__((constructor)) static void warm(void) {
    void *frame;
    backtrace(&frame, 1);
}

/* malloc_stats() writes every arena's system and in-use bytes to stderr. */
__attribute__((destructor)) static void report(void) {
    struct rusage ru;
    int b;
    malloc_stats();
    getrusage(RUSAGE_SELF, &ru);
    dprintf(2, "minflt: %ld\n", ru.ru_minflt);
    for (b = 0; b < BUCKETS; b++)
        if (freed[b]) dprintf(2, "mmfree: bucket %d %lu %lu\n", b, freed[b], freed_bytes[b]);
}
SHIM
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
/^minflt: / { minflt = $2; next }
/^mmfree: bucket / { count[$3] = $4; bytes[$3] = $5; next }
END {
    if (!n) { print "arenas.sh: no malloc_stats() output" > "/dev/stderr"; exit 1 }
    printf "%s: %d arenas at exit (MiB)\n%-8s %9s %9s\n", workload, n, "arena", "system", "in use"
    for (i = 1; i <= n; i++) printf "%-8s %s %s\n", order[i], mib(sys[order[i]]), mib(used[order[i]])
    printf "%-8s %s %s   (arenas plus mmap-ed blocks)\n", "total", mib(sys["total"]), mib(used["total"])
    printf "minor faults: %d\n", minflt
    printf "freed mmapped blocks of 1 MiB or more:"
    if (!length(count)) printf " none"
    printf "\n"
    for (b = 0; b < 8; b++) {
        if (!(b in count)) continue
        range = b < 7 ? sprintf("[%d, %d) MiB", 2 ^ b, 2 ^ (b + 1)) : sprintf("[%d, -) MiB", 2 ^ b)
        printf "  %-14s %6d blocks %s MiB\n", range, count[b], mib(bytes[b])
    }
}
' "$work/stderr"

# Each free that set a new largest size, with its frames in the benchmark
# binary named (`BINARY(+0xOFFSET)` is an offset into the PIE image;
# frames in std, core and alloc are left out).
awk '/^mmfree: largest /,/^mmfree: end$/' "$work/stderr" | while IFS= read -r line; do
    case "$line" in
        "mmfree: largest "*)
            awk -v b="${line#mmfree: largest }" 'BEGIN { printf "freed a %.1f MiB mmapped block at:\n", b / 1048576 }'
            ;;
        "$bin("*)
            off=$(echo "$line" | sed -n 's/.*(+\(0x[0-9a-f]*\)).*/\1/p')
            [ -n "$off" ] || continue
            fn=$(addr2line -f -C -e "$bin" "$off" | head -n 1)
            case "$fn" in std::* | core::* | alloc::* | __rust* | "??") ;; *) echo "    $fn" ;; esac
            ;;
    esac
done
tail -n 1 "$work/stdout"
