#!/bin/sh
# End-to-end smoke test for distributed mode (CI runs this):
#
#   1. run page-frequency single-process and dump its sorted output,
#   2. start two `onepass worker` processes on ephemeral loopback ports
#      (each worker prints its bound address; fixed ports collide on
#      shared CI hosts) and run the same job with `--workers`; the dump
#      must be byte-identical,
#   2b. run sessionization under a tight --budget-kb both ways: the
#      outputs must match, and the distributed run's reducers (which run
#      on the coordinator, under its budget) must spill,
#   2c. run the two plans (top-k, df-histogram) solo and on the same two
#      workers, which serve every plan stage: the dumps must match,
#   3. restart one worker with --die-after-maps so it severs its
#      connection mid-job (the scripted `kill -9`); rerunning its maps on
#      the survivor must still produce byte-identical output, for a job
#      and for a plan.
#
# Set SMOKE_OUT_DIR to keep logs and dumps (CI uploads it on failure).
set -e

OUT=${SMOKE_OUT_DIR:-$(mktemp -d)}
mkdir -p "$OUT"
WORKER_PIDS=""
cleanup() {
    [ -n "$WORKER_PIDS" ] && kill $WORKER_PIDS 2>/dev/null || true
    [ -z "${SMOKE_OUT_DIR:-}" ] && rm -rf "$OUT" || true
}
trap cleanup EXIT

cargo build --release --bin onepass

RUN="./target/release/onepass run page-frequency --records 100000 --reducers 4"

# Each worker binds port 0 and announces the bound address on stderr;
# poll its log until the announcement lands.
worker_addr() {
    log=$1
    for _ in $(seq 1 40); do
        a=$(sed -n 's/^worker listening on \([^ ]*\) .*/\1/p' "$log")
        if [ -n "$a" ]; then
            echo "$a"
            return 0
        fi
        sleep 0.25
    done
    echo "FAIL: worker never announced its address ($log)" >&2
    return 1
}

# Coordinator dials fail fast if a worker is mid-restart, so retry the
# whole run (`$RUN` unless a command is given) until the fleet answers.
run_dist() {
    out=$1
    fleet=$2
    cmd=${3:-$RUN}
    for _ in $(seq 1 20); do
        if $cmd --workers "$fleet" --dump-out "$out"; then
            return 0
        fi
        sleep 0.25
    done
    echo "FAIL: distributed run never succeeded" >&2
    exit 1
}

# 1. Single-process reference.
$RUN --dump-out "$OUT/solo.tsv"

# 2. Two healthy workers.
./target/release/onepass worker --listen 127.0.0.1:0 2> "$OUT/w1.log" &
P1=$!
./target/release/onepass worker --listen 127.0.0.1:0 2> "$OUT/w2.log" &
P2=$!
WORKER_PIDS="$P1 $P2"
W1=$(worker_addr "$OUT/w1.log")
W2=$(worker_addr "$OUT/w2.log")

run_dist "$OUT/dist.tsv" "$W1,$W2"
if ! cmp -s "$OUT/solo.tsv" "$OUT/dist.tsv"; then
    echo "FAIL: distributed output differs from single-process"
    diff "$OUT/solo.tsv" "$OUT/dist.tsv" | head -20
    exit 1
fi
echo "ok: two-worker output is byte-identical"

# 2b. A budget tight enough to spill, solo and on the same two workers.
TIGHT="./target/release/onepass run sessionization --records 100000 --budget-kb 256"
$TIGHT --dump-out "$OUT/tight-solo.tsv" > /dev/null
$TIGHT --workers "$W1,$W2" --dump-out "$OUT/tight-dist.tsv" > "$OUT/tight-dist.out"
if ! cmp -s "$OUT/tight-solo.tsv" "$OUT/tight-dist.tsv"; then
    echo "FAIL: tight-budget distributed output differs from single-process"
    exit 1
fi
if ! grep -q '^reduce spill:' "$OUT/tight-dist.out" ||
    grep -q '^reduce spill: *0 B' "$OUT/tight-dist.out"; then
    echo "FAIL: the distributed run's reducers ignored the reduce budget (no reduce spill)"
    cat "$OUT/tight-dist.out"
    exit 1
fi
echo "ok: the tight budget held ($(grep '^reduce spill:' "$OUT/tight-dist.out"))"

# 2c. Plans: every stage's maps run on the workers.
TOPK="./target/release/onepass plan top-k --records 100000"
DFH="./target/release/onepass plan df-histogram --records 100000"
$TOPK --dump-out "$OUT/topk-solo.tsv" > /dev/null
$DFH --dump-out "$OUT/dfh-solo.tsv" > /dev/null
run_dist "$OUT/topk-dist.tsv" "$W1,$W2" "$TOPK" > /dev/null
run_dist "$OUT/dfh-dist.tsv" "$W1,$W2" "$DFH" > /dev/null
for plan in topk dfh; do
    if ! cmp -s "$OUT/$plan-solo.tsv" "$OUT/$plan-dist.tsv"; then
        echo "FAIL: distributed $plan plan output differs from single-process"
        diff "$OUT/$plan-solo.tsv" "$OUT/$plan-dist.tsv" | head -20
        exit 1
    fi
done
echo "ok: two-worker plan outputs are byte-identical"

# 3. Worker loss mid-job: the first worker dies cold after one completed
# map; the survivor reruns its maps.
kill "$P1"
wait "$P1" 2>/dev/null || true
WORKER_PIDS="$P2"
./target/release/onepass worker --listen 127.0.0.1:0 --slots 1 --die-after-maps 1 \
    2> "$OUT/w1b.log" &
P1=$!
WORKER_PIDS="$P1 $P2"
W1=$(worker_addr "$OUT/w1b.log")

run_dist "$OUT/killed.tsv" "$W1,$W2"
if ! cmp -s "$OUT/solo.tsv" "$OUT/killed.tsv"; then
    echo "FAIL: output diverged after mid-job worker loss"
    diff "$OUT/solo.tsv" "$OUT/killed.tsv" | head -20
    exit 1
fi
echo "ok: output survives a mid-job worker kill byte-identically"

run_dist "$OUT/dfh-killed.tsv" "$W1,$W2" "$DFH" > /dev/null
if ! cmp -s "$OUT/dfh-solo.tsv" "$OUT/dfh-killed.tsv"; then
    echo "FAIL: plan output diverged after mid-job worker loss"
    diff "$OUT/dfh-solo.tsv" "$OUT/dfh-killed.tsv" | head -20
    exit 1
fi
echo "ok: a plan survives a mid-job worker kill byte-identically"

echo "transport smoke: all checks passed"
