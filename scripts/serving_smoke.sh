#!/bin/sh
# End-to-end smoke test for the multi-tenant serving front-end (CI runs
# this):
#
#   1. boot `onepass serve` on an ephemeral port, gated on TENANTS
#      subscribers before ingest starts,
#   2. drive TENANTS Zipf-assigned tenants with `onepass loadgen` (which
#      also cross-checks tenants of the same query against each other and
#      reports TTFA percentiles + Jain fairness),
#   3. diff every tenant's final dump against a solo `onepass run` /
#      `onepass plan` over the same generator settings — all must be
#      byte-identical,
#   4. scrape the metrics endpoint for a nonzero per-tenant TTFA gauge
#      for every tenant.
#
# Set SMOKE_OUT_DIR to keep logs/dumps/reports (CI uploads it on
# failure). TENANTS/RECORDS scale the load and POOL_MB sizes the shared
# memory pool (nightly runs the load up and the pool down). Same-query
# tenants pool their shares into one session, so a soak sheds only under
# a pool smaller than a handful of sessions' state: with SOAK=1 the
# script fails unless the server counted at least one governor shed.
set -e

TENANTS=${TENANTS:-200}
RECORDS=${RECORDS:-20000}
POOL_MB=${POOL_MB:-64}
OUT=${SMOKE_OUT_DIR:-$(mktemp -d)}
mkdir -p "$OUT"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -z "${SMOKE_OUT_DIR:-}" ] && rm -rf "$OUT" || true
}
trap cleanup EXIT

cargo build --release --bin onepass

./target/release/onepass serve --listen 127.0.0.1:0 \
    --records "$RECORDS" --batch 512 --pool-mb "$POOL_MB" \
    --reducers 2 --await-tenants "$TENANTS" --await-timeout-ms 120000 \
    --metrics-addr 127.0.0.1:0 --metrics-linger-ms 20000 \
    > "$OUT/serve.log" 2> "$OUT/serve.err" &
SERVE_PID=$!

# Both listen addresses are ephemeral — parse the bound ports from the
# server's own announcements instead of configuring fixed ones.
ADDR=""
for _ in $(seq 1 120); do
    ADDR=$(sed -n 's/^serving tenants on //p' "$OUT/serve.log")
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.25
done
[ -n "$ADDR" ] || { echo "FAIL: serve never printed its address"; cat "$OUT/serve.err"; exit 1; }
METRICS=$(sed -n 's/^serving metrics on //p' "$OUT/serve.err")
[ -n "$METRICS" ] || { echo "FAIL: serve never printed its metrics address"; cat "$OUT/serve.err"; exit 1; }
echo "serve is up on $ADDR (metrics $METRICS)"

./target/release/onepass loadgen --server "$ADDR" --tenants "$TENANTS" \
    --dump-dir "$OUT/dumps" --report "$OUT/loadgen.jsonl"

# Scrape while the post-run linger keeps the endpoint alive: every tenant
# must have recorded a (necessarily nonzero) time-to-first-answer gauge.
SEEN=0
for _ in $(seq 1 40); do
    curl -sf "$METRICS" > "$OUT/metrics.prom" 2>/dev/null || true
    SEEN=$(grep -c '^onepass_serve_tenant_ttfa_seconds{tenant="' "$OUT/metrics.prom" || true)
    [ "$SEEN" -ge "$TENANTS" ] && break
    sleep 0.25
done
[ "$SEEN" -ge "$TENANTS" ] || { echo "FAIL: only $SEEN/$TENANTS per-tenant TTFA gauges"; exit 1; }
if grep '^onepass_serve_tenant_ttfa_seconds{' "$OUT/metrics.prom" | grep -q '} 0$'; then
    echo "FAIL: a tenant reported a zero TTFA"
    exit 1
fi
echo "ok: $SEEN nonzero per-tenant TTFA gauges"
SHEDS=$(sed -n 's/^onepass_serve_sheds_total \([0-9]*\).*/\1/p' "$OUT/metrics.prom")
echo "governor sheds serviced at a ${POOL_MB} MiB pool: ${SHEDS:-none reported}"
if [ "${SOAK:-0}" = 1 ] && [ "${SHEDS:-0}" -eq 0 ]; then
    echo "FAIL: SOAK=1 but no session shed; lower POOL_MB until the pool is contended"
    exit 1
fi

# Solo references over the same generator settings, then the
# byte-identity sweep across every tenant dump. `onepass workloads`
# prints one row per workload: its name, then the commands that take it.
# `join` tenants have no solo reference: the workload catalog's `join`
# row (crates/workloads/src/catalog.rs) says why its served query and
# `plan join` differ. loadgen above already held the join tenants
# identical to each other.
NO_SOLO=join
./target/release/onepass workloads > "$OUT/workloads.txt"
while read -r w cmds _; do
    case ",$cmds," in *,serve,*) ;; *) continue ;; esac
    [ "$w" = "$NO_SOLO" ] && continue
    case ",$cmds," in
        *,run,*) ./target/release/onepass run "$w" --records "$RECORDS" --reducers 2 \
            --dump-out "$OUT/solo.$w.dump" > /dev/null ;;
        *) ./target/release/onepass plan "$w" --records "$RECORDS" --reducers 2 --k 10 \
            --dump-out "$OUT/solo.$w.dump" > /dev/null ;;
    esac
done < "$OUT/workloads.txt"

FAILED=0
CHECKED=0
for f in "$OUT"/dumps/*.dump; do
    q=$(basename "$f" .dump | cut -d. -f2)
    if [ "$q" != "$NO_SOLO" ] && ! cmp -s "$f" "$OUT/solo.$q.dump"; then
        echo "FAIL: $(basename "$f") differs from the solo $q run"
        FAILED=1
    fi
    CHECKED=$((CHECKED + 1))
done
[ "$CHECKED" -eq "$TENANTS" ] || { echo "FAIL: expected $TENANTS dumps, found $CHECKED"; exit 1; }
[ "$FAILED" -eq 0 ] || exit 1
echo "ok: all $TENANTS tenant dumps are byte-identical to solo runs"

wait "$SERVE_PID"
SERVE_PID=""
echo "serving smoke: all checks passed"
