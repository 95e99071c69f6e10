#!/usr/bin/env bash
# Scale smoke (ISSUE 8 satellite): proves the mmap trace path's two
# load-bearing claims on every CI run, at a few-minute scale:
#
#   1. O(1) residency — replaying a trace several times longer must not
#      cost proportionally more peak RSS. Both traces are generated with
#      the streaming writer (cascache_sim --trace-out), replayed via
#      --trace-in --trace-stream-release, and the peak RSS (VmHWM,
#      printed by the driver under CASCACHE_PRINT_RSS) of the long
#      replay must stay within RSS_HEADROOM_PCT of the short one's,
#      plus an absolute sanity ceiling.
#
#      Both trace lengths must exceed the replay chunk (2M requests,
#      kReplayChunk in src/sim): pages release only between chunks, so
#      every replay keeps a bounded in-flight window resident (one chunk
#      of 16-byte records plus the 16 MiB release-granule floor). A
#      sub-chunk trace never pays that window and would make the
#      comparison apples-to-oranges — measured on the dev host,
#      coordinated replay peaks at 168 MB for 1M requests, then
#      184/184/202/200 MB for 2M/3M/6M/12M: flat (within granule
#      jitter) once past the window.
#
#   2. Bit-identity — the mapped replay must produce exactly the same
#      results CSV as generating the identical workload in RAM, modulo
#      the four wall-clock timing columns (17-20), which are stripped
#      before diffing.
#
#   3. Non-stationary scale (ISSUE 9) — a 10M-request drifting-popularity
#      workload over a 10^8-object *procedural* catalog must generate,
#      summarize and replay end-to-end: the v3 trace stores a 64-byte
#      catalog model (not 1.2 GB of per-object entries, asserted via the
#      file size), and the sparse id->slot store tables keep the replay's
#      peak RSS under the same absolute ceiling (a dense table would need
#      400 MB per store instance at 10^8 ids).
#
#   4. Residency-sized store indexes — a 2M-request drifting replay over
#      a 10^6-object catalog on the 100-node en-route topology, LRU at 1%
#      (the benchmark's enroute_drift_mapped shape), must peak under
#      MAPPED_CEILING_KB. Stores over catalogs above 2^18 objects index
#      their ~10^4 residents in hashed tables; dense id tables (4 bytes x
#      10^6 ids x 100 stores) peaked at 607 MB here, the hashed ones at
#      142 MB.
#
# Environment overrides:
#   CASCACHE_SCALE_BUILD_DIR   build directory     (default build-scale)
#   CASCACHE_SCALE_SMALL       short trace length  (default 3000000)
#   CASCACHE_SCALE_LARGE       long trace length   (default 12000000)
#   CASCACHE_SCALE_DRIFT       drift trace length  (default 10000000)
#   CASCACHE_SCALE_DRIFT_OBJECTS  drift catalog     (default 100000000)
#   RSS_HEADROOM_PCT           allowed growth      (default 15)
#   RSS_CEILING_KB             absolute cap        (default 2000000)
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${CASCACHE_SCALE_BUILD_DIR:-"$REPO_ROOT/build-scale"}
SMALL=${CASCACHE_SCALE_SMALL:-3000000}
LARGE=${CASCACHE_SCALE_LARGE:-12000000}
DRIFT=${CASCACHE_SCALE_DRIFT:-10000000}
DRIFT_OBJECTS=${CASCACHE_SCALE_DRIFT_OBJECTS:-100000000}
HEADROOM=${RSS_HEADROOM_PCT:-15}
CEILING=${RSS_CEILING_KB:-2000000}

# Fixed, not overridable: the guard's point is the absolute ceiling.
MAPPED_REQUESTS=2000000
MAPPED_OBJECTS=1000000
MAPPED_CEILING_KB=300000

WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target cascache_sim --target cascache_trace
SIM="$BUILD_DIR/tools/cascache_sim"

# Common workload shape; only the request count varies between the two
# traces, so RSS growth can only come from trace length.
GEN_ARGS=(--objects=50000 --clients=1000 --servers=100 --seed=7)
RUN_ARGS=(--schemes=lru,coordinated --cache=0.01)

# peak_rss <trace> <out_prefix>: replay with page release, print VmHWM kB.
peak_rss() {
  local trace=$1 prefix=$2
  CASCACHE_PRINT_RSS=1 "$SIM" "--trace-in=$trace" --trace-stream-release \
      "${RUN_ARGS[@]}" "--results-csv=$WORK_DIR/$prefix.csv" \
      2>"$WORK_DIR/$prefix.err" >"$WORK_DIR/$prefix.out"
  sed -n 's/^peak_rss_kb=//p' "$WORK_DIR/$prefix.err"
}

echo "== generating $SMALL- and $LARGE-request traces (streaming writer)"
"$SIM" "${GEN_ARGS[@]}" "--requests=$SMALL" "--trace-out=$WORK_DIR/small.cctr"
"$SIM" "${GEN_ARGS[@]}" "--requests=$LARGE" "--trace-out=$WORK_DIR/large.cctr"

echo "== replaying both with --trace-stream-release"
SMALL_RSS=$(peak_rss "$WORK_DIR/small.cctr" small)
LARGE_RSS=$(peak_rss "$WORK_DIR/large.cctr" large)
echo "peak RSS: small=$SMALL_RSS kB, large=$LARGE_RSS kB"
if [[ -z "$SMALL_RSS" || -z "$LARGE_RSS" ]]; then
  echo "FAIL: driver did not print peak_rss_kb" >&2
  exit 1
fi

LIMIT=$(( SMALL_RSS * (100 + HEADROOM) / 100 ))
if (( LARGE_RSS > LIMIT )); then
  echo "FAIL: ${LARGE}-request replay peak RSS ($LARGE_RSS kB) exceeds" \
       "${SMALL}-request replay's +${HEADROOM}% ($LIMIT kB) —" \
       "residency is no longer O(1) in trace length" >&2
  exit 1
fi
if (( LARGE_RSS > CEILING )); then
  echo "FAIL: peak RSS $LARGE_RSS kB exceeds absolute ceiling $CEILING kB" >&2
  exit 1
fi

echo "== bit-identity: mapped replay vs in-RAM generation"
"$SIM" "${GEN_ARGS[@]}" "--requests=$SMALL" "${RUN_ARGS[@]}" \
    "--results-csv=$WORK_DIR/generated.csv" >/dev/null 2>&1
strip_timing() {  # columns 17-20 are wall-clock, nondeterministic
  awk -F, 'BEGIN{OFS=","} {$17=$18=$19=$20=""; print}' "$1"
}
if ! diff <(strip_timing "$WORK_DIR/generated.csv") \
          <(strip_timing "$WORK_DIR/small.csv"); then
  echo "FAIL: mapped replay diverged from in-RAM generation" >&2
  exit 1
fi

echo "== drift point: $DRIFT requests over a $DRIFT_OBJECTS-object procedural catalog"
"$SIM" "--objects=$DRIFT_OBJECTS" --clients=1000 --servers=100 --seed=7 \
    --workload=drift --workload-drift-half-life=900 --catalog=procedural \
    "--requests=$DRIFT" "--trace-out=$WORK_DIR/drift.cctr"
# A v3 trace stores the catalog as a 64-byte model block; the file must
# be requests + headers, not 12 bytes x 10^8 of materialized entries.
DRIFT_BYTES=$(stat -c%s "$WORK_DIR/drift.cctr")
DRIFT_MAX_BYTES=$(( DRIFT * 16 + 8192 ))
if (( DRIFT_BYTES > DRIFT_MAX_BYTES )); then
  echo "FAIL: drift trace is $DRIFT_BYTES bytes (> $DRIFT_MAX_BYTES) —" \
       "the procedural catalog was materialized on disk" >&2
  exit 1
fi
"$BUILD_DIR/tools/cascache_trace" summarize "$WORK_DIR/drift.cctr" \
    >"$WORK_DIR/drift_summary.txt"
grep -q "^format version:        v3$" "$WORK_DIR/drift_summary.txt" || {
  echo "FAIL: drift trace did not summarize as v3" >&2
  exit 1
}
# Replay with a capacity small enough that stores stay bounded by churn,
# not by the (petabyte-scale) catalog; what is under test is that no
# dense per-object structure scales with the 10^8-id space.
DRIFT_RSS=$(CASCACHE_PRINT_RSS=1 "$SIM" "--trace-in=$WORK_DIR/drift.cctr" \
    --trace-stream-release --schemes=lru,coordinated --cache=0.0000001 \
    2>&1 >"$WORK_DIR/drift.out" | sed -n 's/^peak_rss_kb=//p')
echo "drift replay peak RSS: ${DRIFT_RSS:-<missing>} kB"
if [[ -z "$DRIFT_RSS" ]] || (( DRIFT_RSS > CEILING )); then
  echo "FAIL: drift replay peak RSS (${DRIFT_RSS:-none} kB) exceeds" \
       "ceiling $CEILING kB — the 10^8-object path regressed" >&2
  exit 1
fi

echo "== store-index point: $MAPPED_REQUESTS requests over a $MAPPED_OBJECTS-object catalog, en-route LRU"
"$SIM" "--objects=$MAPPED_OBJECTS" --clients=2000 --servers=500 --seed=7 \
    --arch=enroute --workload=drift "--requests=$MAPPED_REQUESTS" \
    "--trace-out=$WORK_DIR/mapped.cctr"
MAPPED_RSS=$(CASCACHE_PRINT_RSS=1 "$SIM" "--trace-in=$WORK_DIR/mapped.cctr" \
    --trace-stream-release --schemes=lru --cache=0.01 \
    2>&1 >"$WORK_DIR/mapped.out" | sed -n 's/^peak_rss_kb=//p')
echo "store-index replay peak RSS: ${MAPPED_RSS:-<missing>} kB"
if [[ -z "$MAPPED_RSS" ]] || (( MAPPED_RSS > MAPPED_CEILING_KB )); then
  echo "FAIL: ${MAPPED_OBJECTS}-object replay peak RSS (${MAPPED_RSS:-none} kB)" \
       "exceeds $MAPPED_CEILING_KB kB — store id indexes scale with the" \
       "catalog again, not with residency" >&2
  exit 1
fi

echo "PASS: RSS O(1) in trace length ($SMALL_RSS -> $LARGE_RSS kB over" \
     "${SMALL}->${LARGE} requests), mapped replay bit-identical, the" \
     "${DRIFT_OBJECTS}-object drift point replayed in $DRIFT_RSS kB, and the" \
     "${MAPPED_OBJECTS}-object en-route replay in $MAPPED_RSS kB"
