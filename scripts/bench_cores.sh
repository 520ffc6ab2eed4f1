#!/bin/sh
# Sweeps GOMAXPROCS over the parallel-path benchmarks (the per-algorithm
# Workers1/WorkersMax pairs, the parallel Mondrian recursion, and the
# chunked scan kernels: GroupBy, snapshot encode) and prints
# the speedup-per-core profile via `benchjson speedup`. The sweep is clamped
# to the host's cores: asking for more processors than exist measures
# scheduler thrash, not scaling.
#
# Environment:
#   GO       go command (default: go)
#   PROCS    core counts to sweep (default: "1 2 4")
#   OUT_DIR  where the per-count text and JSON records land (default: bench-cores)
set -eu

GO=${GO:-go}
PROCS=${PROCS:-"1 2 4"}
OUT_DIR=${OUT_DIR:-bench-cores}

PATTERN='BenchmarkMondrianParallel|BenchmarkSamaratiWorkers|BenchmarkKMemberWorkers|BenchmarkTopDownWorkers|BenchmarkIncognitoWorkers|BenchmarkGroupByWorkers|BenchmarkSnapshotWriteWorkers'

avail=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
mkdir -p "$OUT_DIR"

files=""
for p in $PROCS; do
    if [ "$p" -gt "$avail" ]; then
        echo "bench-cores: skipping GOMAXPROCS=$p (host has $avail cores)" >&2
        continue
    fi
    echo "== GOMAXPROCS=$p" >&2
    GOMAXPROCS=$p $GO test -run '^$' -bench "$PATTERN" -benchmem ./... \
        >"$OUT_DIR/bench-p$p.txt"
    GOMAXPROCS=$p $GO run ./cmd/benchjson \
        <"$OUT_DIR/bench-p$p.txt" >"$OUT_DIR/bench-p$p.json"
    files="$files $OUT_DIR/bench-p$p.json"
done

case "$files" in
*json*json*) $GO run ./cmd/benchjson speedup $files ;;
*) echo "bench-cores: fewer than two core counts ran; no speedup table" >&2 ;;
esac
