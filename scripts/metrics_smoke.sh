#!/bin/sh
# End-to-end smoke test for the live-metrics exporters (CI runs this):
#
#   1. run a pipelined plan with --metrics-addr + --metrics-out on an
#      ephemeral port (the run announces the bound address; fixed ports
#      collide on shared CI hosts),
#   2. curl the Prometheus endpoint while the plan is live (the linger
#      keeps it up even if the run finishes first),
#   3. check the exposition contains per-stage progress gauges, a
#      nonzero TTFA histogram, and phase busy-time counters,
#   4. validate the JSONL snapshot stream with `onepass metrics-validate`,
#      and check it holds the sampler's start snapshot and, last, the
#      final one.
#
# Set SMOKE_OUT_DIR to keep the logs and snapshots (CI uploads it on
# failure).
set -e

OUT=${SMOKE_OUT_DIR:-$(mktemp -d)}
mkdir -p "$OUT"
cleanup() {
    [ -z "${SMOKE_OUT_DIR:-}" ] && rm -rf "$OUT" || true
}
trap cleanup EXIT

cargo build --release --bin onepass

./target/release/onepass plan top-k --records 300000 \
    --metrics-addr 127.0.0.1:0 --metrics-out "$OUT/snaps.jsonl" \
    --metrics-linger-ms 4000 2> "$OUT/plan.err" &
PLAN_PID=$!

# The bound address is announced on stderr ("serving metrics on URL").
URL=""
for _ in $(seq 1 40); do
    URL=$(sed -n 's/^serving metrics on //p' "$OUT/plan.err")
    [ -n "$URL" ] && break
    sleep 0.25
done
[ -n "$URL" ] || { echo "FAIL: plan never announced its metrics address"; cat "$OUT/plan.err"; exit 1; }

# Scrape as soon as the listener answers; retry while the plan warms up.
EXPO=""
for _ in $(seq 1 40); do
    if EXPO=$(curl -sf "$URL" 2>/dev/null) && [ -n "$EXPO" ]; then
        break
    fi
    sleep 0.25
done
[ -n "$EXPO" ] || { echo "FAIL: metrics endpoint never answered"; exit 1; }
echo "$EXPO" | head -5

# A second scrape near the end of the run (during linger) sees the
# final state: progress at 1, TTFA observed.
wait_for_final() {
    for _ in $(seq 1 40); do
        FINAL=$(curl -sf "$URL" 2>/dev/null) || FINAL=""
        if echo "$FINAL" | grep -q '^onepass_plan_ttfa_seconds_count{[^}]*} [1-9]'; then
            echo "$FINAL"
            return 0
        fi
        sleep 0.25
    done
    echo "$FINAL"
}
FINAL=$(wait_for_final)
echo "$FINAL" > "$OUT/final.prom"

check() {
    if echo "$FINAL" | grep -qE "$2"; then
        echo "ok: $1"
    else
        echo "FAIL: $1 (pattern: $2)"
        echo "$FINAL" | head -40
        exit 1
    fi
}

check "exposition TYPE lines"        '^# TYPE onepass_stage_progress_ratio gauge'
check "per-stage progress gauges"    '^onepass_stage_progress_ratio\{stage="[^"]+"\} '
check "nonzero TTFA histogram"       '^onepass_plan_ttfa_seconds_count\{[^}]*\} [1-9]'
check "TTFA quantiles"               '^onepass_plan_ttfa_seconds\{[^}]*quantile="0.99"[^}]*\} '
check "phase busy-time counters"     '^onepass_engine_phase_micros_total\{[^}]*phase="[a-z_]+"'
check "shuffle byte counters"        '^onepass_engine_shuffle_bytes_total\{stage="[^"]+"\} [0-9]'
# Both plan stages are in-node-eligible one-pass jobs, so their worker
# combiners must have flushed (and observed the ratio) at least once.
check "in-node combine ratio histogram" '^onepass_innode_combine_ratio_count\{[^}]*\} [1-9]'

wait "$PLAN_PID"

# JSONL schema round-trip, and the snapshot stream must carry the
# in-node combine ratio family the exposition check saw.
./target/release/onepass metrics-validate "$OUT/snaps.jsonl"
grep -q '"name":"onepass_innode_combine_ratio"' "$OUT/snaps.jsonl" \
    || { echo "FAIL: snapshots missing onepass_innode_combine_ratio"; exit 1; }

# The sampler writes on start, every period and once more on stop: at
# least two lines however fast the plan runs (the timed lines between
# are pinned by the `obs::sampler_collects_snapshots` unit test), and
# the last one sees both stages done.
LINES=$(wc -l < "$OUT/snaps.jsonl")
[ "$LINES" -ge 2 ] || { echo "FAIL: $LINES snapshot line(s), want the start one and the final one"; exit 1; }
LAST=$(tail -n 1 "$OUT/snaps.jsonl")
for stage in url-counts top-k; do
    echo "$LAST" | grep -q "{\"name\":\"onepass_stage_progress_ratio\",\"labels\":{\"stage\":\"$stage\"},\"value\":1}" \
        || { echo "FAIL: last snapshot lacks progress 1 for stage $stage"; exit 1; }
done
echo "ok: $LINES snapshot lines, the last with both stages at progress 1"

echo "metrics smoke: all checks passed"
