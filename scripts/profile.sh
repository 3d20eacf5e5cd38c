#!/usr/bin/env bash
# Where does a benchmark workload spend its CPU?
#   scripts/profile.sh [--bin BENCHMARK_BINARY] [WORKLOAD [SECONDS]]
#
# Builds the repo benchmark (or takes a prebuilt `onepass-benchmark` with
# --bin, e.g. a parent checkout's), runs `--workload WORKLOAD --seconds
# SECONDS --trace 0` (default: sessionize_hadoop, 8) under a small
# LD_PRELOAD sampler, and prints the functions with the largest self and
# inclusive shares of the samples.
#
# The sampler is C, compiled here with `cc`: setitimer(ITIMER_PROF) every
# 2 ms of process CPU time, glibc backtrace() from the SIGPROF handler
# into a buffer allocated up front, and at exit the samples plus
# /proc/self/maps written to the working directory. Symbols come from
# `nm -C` of the binary; time in a shared library (memcpy, malloc) is
# charged to the binary function that called it, and an inlined function
# to the function it was inlined into. The shares cover the whole
# process, the benchmark's set-up included.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=""
if [ "${1:-}" = "--bin" ]; then
    bin=$(realpath "$2")
    shift 2
fi
workload=${1:-sessionize_hadoop}
seconds=${2:-8}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ -z "$bin" ]; then
    target="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir "$target" >&2
    bin="$target/release/onepass-benchmark"
fi

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 16)
#define DEPTH 64
#define PERIOD_US 2000
/* Frames 0 and 1 are this handler and the kernel's signal trampoline. */
#define SKIP 2

static void **frames;
static int *depths;
static int taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info, (void)ctx;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depths[i] = backtrace(frames + (size_t)i * DEPTH, DEPTH);
}

__attribute__((constructor)) static void start(void) {
    frames = mmap(0, sizeof(void *) * MAX_SAMPLES * DEPTH, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    depths = mmap(0, sizeof(int) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (frames == MAP_FAILED || depths == MAP_FAILED)
        return;
    /* The first backtrace() loads the unwinder, which allocates: do it
       here, not in the handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, 0);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, 0);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[64], line[4096];
    snprintf(path, sizeof path, "onepass-prof.%d", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    fclose(maps);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('S', out);
        /* Past the interrupted PC, frames are return addresses: step back
           into the call instruction. */
        for (int f = SKIP; f < depths[i]; f++)
            fprintf(out, " %lu", (unsigned long)frames[(size_t)i * DEPTH + f] - (f > SKIP));
        fputc('\n', out);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

(cd "$work" && LD_PRELOAD="$work/sampler.so" "$bin" --out-dir "$work/out" \
    --workload "$workload" --seconds "$seconds" --trace 0 | tail -n 1 >&2)

dump=$(ls "$work"/onepass-prof.*)
nm -C -n -t d --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/' > "$work/syms"
readelf -lW "$bin" | awk '$1 == "LOAD" { print $2, $3, $5 }' > "$work/loads"

awk -v bin="$(realpath "$bin")" -v workload="$workload" '
function hex(s,    i, v) {
    sub(/^0x/, "", s)
    v = 0
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}
# The function (or library) the decimal address `s` falls in. Memoised
# by the string: a number as an array subscript loses digits.
function name(s,    a, i, j, lo, hi, mid, off, v, lib) {
    if (s in memo) return memo[s]
    a = s + 0
    for (i = 1; i <= nmaps; i++) {
        if (a < mstart[i] || a >= mend[i]) continue
        off = a - mstart[i] + moff[i]
        if (mpath[i] != bin) {
            lib = mpath[i]; sub(/.*\//, "", lib)
            return memo[s] = "[" (lib == "" ? "anon" : lib) "]"
        }
        v = -1
        for (j = 1; j <= nloads; j++)
            if (off >= loff[j] && off < loff[j] + lsize[j]) v = off - loff[j] + lvaddr[j]
        if (v < 0) break
        lo = 1; hi = nsyms
        while (lo < hi) { mid = int((lo + hi + 1) / 2); if (saddr[mid] <= v) lo = mid; else hi = mid - 1 }
        return memo[s] = (nsyms && saddr[lo] <= v) ? sname[lo] : "[unknown]"
    }
    return memo[s] = "[unknown]"
}
FILENAME ~ /loads$/ { nloads++; loff[nloads] = hex($1); lvaddr[nloads] = hex($2); lsize[nloads] = hex($3); next }
FILENAME ~ /syms$/ {
    nsyms++; saddr[nsyms] = $1 + 0
    $1 = ""; $2 = ""; sub(/^  /, ""); sname[nsyms] = $0
    next
}
$1 == "M" && $3 ~ /x/ {
    split($2, r, "-")
    nmaps++; mstart[nmaps] = hex(r[1]); mend[nmaps] = hex(r[2]); moff[nmaps] = hex($4)
    mpath[nmaps] = NF >= 7 ? $7 : ""
    next
}
$1 == "S" && NF > 1 {
    samples++
    charged = 0
    split("", seen)
    for (k = 2; k <= NF; k++) {
        f = name($k)
        if (k == 2 && f ~ /^\[/) lib[f]++
        if (f ~ /^\[/) continue
        if (!charged) { self[f]++; charged = 1 }
        if (!(f in seen)) { seen[f] = 1; incl[f]++ }
    }
}
END {
    printf "%s: %d samples (2 ms of CPU each); interrupted in a library:", workload, samples
    for (f in lib) printf " %s %.1f%%", f, 100 * lib[f] / samples
    printf "\nself: the function, or the binary function that called the library it was in\n"
    top = "sort -k2,2 -rn | head -n 25"
    for (f in self) printf "self %6.2f%%  %s\n", 100 * self[f] / samples, f | top
    close(top)
    for (f in incl) printf "incl %6.2f%%  %s\n", 100 * incl[f] / samples, f | top
}
' "$work/loads" "$work/syms" "$dump"
