#!/bin/sh
# bench.sh — run the E1–E9 and E14–E17 experiment benchmarks (plus the
# parallel pairs, the sweep-vs-recompress pair and the on-disk format
# pairs) and record the results as JSON in BENCH_core.json, so the
# repository tracks its performance trajectory PR over PR.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCH_PATTERN   benchmark regexp (default: the E1–E9 and E14–E17
#                   experiment benches, the parallel workers pairs, the
#                   BoundSweep32 mode pair, and the DiskFormatWrite /
#                   IndexedDecode format and decode pairs)
#   BENCH_TIME      -benchtime value (default 1x: one run per benchmark —
#                   coarse but cheap; raise for stable numbers)
#   BENCH_ALLOW_SINGLE_CPU
#                   set to 1 to record the Workers speedup pairs even on a
#                   single-CPU machine (normally refused: see below)
#
# If any benchmark (and therefore any experiment it wraps) fails, the
# script exits non-zero WITHOUT touching the output file: a partial
# BENCH_core.json would silently erase the trajectory it exists to track.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_core.json}
PATTERN=${BENCH_PATTERN:-'^Benchmark(E[1-9]_|E14_|E15_|E16_|E17_|BoundSweep32|DiskFormatWrite|IndexedDecode|CompressDPWorkers|ForestDescentWorkers|ApplyCutWorkers|EvalBatchWorkers)'}
TIME=${BENCH_TIME:-1x}

# The parallel speedup pairs are meaningless on a single CPU: workers>1
# then measures pure goroutine handoff, and recording the resulting
# "speedup" (≤1 by construction) would poison the trajectory file. Refuse
# to run the pairs unless the machine can actually run two workers — or
# the caller explicitly opts in with BENCH_ALLOW_SINGLE_CPU=1 (e.g. to
# refresh allocs/op numbers from a one-CPU container, where alloc counts
# are still exact).
CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
PROCS=${GOMAXPROCS:-$CPUS}
case $PATTERN in
*Workers*)
    if [ "$PROCS" -lt 2 ] && [ "${BENCH_ALLOW_SINGLE_CPU:-0}" != 1 ]; then
        echo "bench.sh: the Workers speedup pairs need >=2 CPUs (GOMAXPROCS=$PROCS); set BENCH_ALLOW_SINGLE_CPU=1 to record anyway" >&2
        exit 1
    fi
    ;;
esac

TMP=$(mktemp)
BASETMP=$(mktemp)
trap 'rm -f "$TMP" "$BASETMP"' EXIT

# Flatten the checked-in baseline snapshot into "name allocs bytes" lines
# for awk. The snapshot pins the pre-packed-layout numbers the ROADMAP
# reduction targets are stated against; it is only ever updated
# deliberately, never by this script.
sed -n 's/.*"name": *"\([^"]*\)", *"allocs_per_op": *\([0-9][0-9]*\), *"bytes_per_op": *\([0-9][0-9]*\).*/\1 \2 \3/p' \
    scripts/bench_baseline.json > "$BASETMP"

# POSIX sh has no pipefail: run go test to completion first and inspect
# its exit status (and the FAIL marker benchmarks print on b.Fatal)
# before any JSON is generated.
if ! go test -run='^$' -bench="$PATTERN" -benchtime="$TIME" -benchmem . >"$TMP" 2>&1; then
    cat "$TMP" >&2
    echo "bench.sh: benchmarks failed; leaving $OUT untouched" >&2
    exit 1
fi
if grep -q '^--- FAIL\|^FAIL' "$TMP"; then
    cat "$TMP" >&2
    echo "bench.sh: benchmark output reports FAIL; leaving $OUT untouched" >&2
    exit 1
fi
cat "$TMP"

# Convert `go test -bench` lines into a JSON document. Paired workers=1 /
# workers=N sub-benchmarks additionally yield derived speedup entries, as
# do mode=sweep / mode=recompress pairs (speedup = recompress / sweep:
# how much one batched frontier sweep saves over per-bound recompression).
# Each derived entry also carries the pair's allocs/op and their delta,
# so allocation regressions on the hot paths (ROADMAP item 1) surface in
# the same trajectory file as the speedups they suppress. Benchmarks
# listed in scripts/bench_baseline.json additionally yield
# allocs_reduction entries (baseline / current), making the ≥5×
# allocation-reduction goal visible in the trajectory file itself.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go env GOVERSION)" \
    -v cpus="$CPUS" \
    -v gomaxprocs="$PROCS" '
FNR == NR { basea[$1] = $2; baseb[$1] = $3; next }
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n  \"benchmarks\": [", date, goversion, cpus, gomaxprocs
    n = 0
}
/^Benchmark/ {
    name = $1; iters = $2; nsop = $3
    bytes = "null"; allocs = "null"; disk = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")       bytes  = $(i-1)
        if ($i == "allocs/op")  allocs = $(i-1)
        if ($i == "disk_bytes") disk   = $(i-1)
    }
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
        name, iters, nsop, bytes, allocs
    if (disk != "null") printf ", \"disk_bytes\": %s", disk
    printf "}"
    # Remember current numbers for benchmarks pinned in the baseline
    # snapshot (names in the snapshot carry no -GOMAXPROCS suffix).
    bname = name
    sub(/-[0-9]+$/, "", bname)
    if (bname in basea) { cura[bname] = allocs; curb[bname] = bytes }
    # Remember paired workers benchmarks for derived speedups.
    if (match(name, /\/workers=[0-9]+/)) {
        base = substr(name, 1, RSTART - 1)
        w = substr(name, RSTART + 9, RLENGTH - 9)
        sub(/-[0-9]+$/, "", w)   # strip the -GOMAXPROCS suffix
        if (w == 1) { seq[base] = nsop; seqa[base] = allocs }
        else       { par[base] = nsop; para[base] = allocs }
    }
    # And paired sweep/recompress benchmarks (the -GOMAXPROCS suffix makes
    # "recompress" and "sweep" distinguishable by prefix alone).
    if (match(name, /\/mode=(sweep|recompress)/)) {
        base = substr(name, 1, RSTART - 1)
        mode = substr(name, RSTART + 6, RLENGTH - 6)
        if (mode ~ /^sweep/) { swp[base] = nsop; swpa[base] = allocs }
        else                 { rec[base] = nsop; reca[base] = allocs }
    }
    # Paired sequential/parallel decode benchmarks (the indexed v3 reader):
    # speedup = sequential / parallel wall-clock.
    if (match(name, /\/mode=(sequential|parallel)/)) {
        base = substr(name, 1, RSTART - 1)
        mode = substr(name, RSTART + 6, RLENGTH - 6)
        if (mode ~ /^seq/) { dsq[base] = nsop; dsqa[base] = allocs }
        else               { dpr[base] = nsop; dpra[base] = allocs }
    }
    # Paired format=v2/format=v3 benchmarks: their disk_bytes metrics give
    # the on-disk byte ratio of the indexed compressed format.
    if (match(name, /\/format=v[0-9]+/)) {
        base = substr(name, 1, RSTART - 1)
        fmt = substr(name, RSTART + 8, RLENGTH - 8)
        if (fmt == "v2") fmtv2[base] = disk
        if (fmt == "v3") fmtv3[base] = disk
    }
}
# allocpair renders the baseline/variant allocs/op and their delta for
# one derived pair, or empty JSON fields when -benchmem was off.
function allocpair(a, b) {
    if (a == "null" || b == "null" || a == "" || b == "")
        return sprintf(", \"allocs_base\": null, \"allocs_other\": null, \"allocs_delta\": null")
    return sprintf(", \"allocs_base\": %s, \"allocs_other\": %s, \"allocs_delta\": %d", a, b, b - a)
}
END {
    printf "\n  ],\n  \"speedups\": ["
    m = 0
    for (b in par) {
        if (!(b in seq) || par[b] == 0) continue
        if (m++) printf ","
        printf "\n    {\"name\": \"%s\", \"speedup\": %.3f%s}", b, seq[b] / par[b], allocpair(seqa[b], para[b])
    }
    for (b in swp) {
        if (!(b in rec) || swp[b] == 0) continue
        if (m++) printf ","
        printf "\n    {\"name\": \"%s\", \"speedup\": %.3f%s}", b, rec[b] / swp[b], allocpair(reca[b], swpa[b])
    }
    for (b in dpr) {
        if (!(b in dsq) || dpr[b] == 0) continue
        if (m++) printf ","
        printf "\n    {\"name\": \"%s\", \"speedup\": %.3f%s}", b, dsq[b] / dpr[b], allocpair(dsqa[b], dpra[b])
    }
    printf "\n  ],\n  \"disk_bytes\": ["
    m = 0
    for (b in fmtv3) {
        if (!(b in fmtv2) || fmtv2[b] == "null" || fmtv3[b] == "null" || fmtv2[b] == 0) continue
        if (m++) printf ","
        printf "\n    {\"name\": \"%s\", \"v2_bytes\": %s, \"v3_bytes\": %s, \"v3_over_v2\": %.3f}", \
            b, fmtv2[b], fmtv3[b], fmtv3[b] / fmtv2[b]
    }
    printf "\n  ],\n  \"allocs_reduction\": ["
    m = 0
    for (b in cura) {
        if (cura[b] == "null" || cura[b] == 0) continue
        if (m++) printf ","
        printf "\n    {\"name\": \"%s\", \"baseline_allocs\": %s, \"allocs_per_op\": %s, \"allocs_reduction\": %.2f", \
            b, basea[b], cura[b], basea[b] / cura[b]
        if (curb[b] != "null" && curb[b] != 0)
            printf ", \"baseline_bytes\": %s, \"bytes_per_op\": %s, \"bytes_reduction\": %.2f", \
                baseb[b], curb[b], baseb[b] / curb[b]
        printf "}"
    }
    printf "\n  ]\n}\n"
}' "$BASETMP" "$TMP" > "$OUT"

echo "wrote $OUT" >&2
