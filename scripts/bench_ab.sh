#!/bin/sh
# A/B benchmark of a base revision against the working tree on one host.
#
#   sh scripts/bench_ab.sh [rev]          (rev defaults to HEAD~)
#
# Builds one `go test -c` binary from <rev> (exported with `git archive`
# into a temporary directory, so the repository's worktree list is never
# touched) and one from the working tree, then runs the two alternately for
# ROUNDS rounds, base first in odd rounds and head first in even ones, so
# drift on the host (thermal state, neighbours) and any cost of going first
# or second land on both sides alike. Each round runs every benchmark once
# at go test's default benchtime. Prints every sample of both sides, then
# per benchmark the median ns/op and allocs/op of each side.
#
# Environment:
#   GO         go command (default: go)
#   PKG        package holding the benchmarks (default: . , the root harness)
#   BENCH      benchmark regex (default: BenchmarkMondrianCensus|BenchmarkMondrianK10$)
#   ROUNDS     alternating rounds (default: 10)
#   OVERLAY    working-tree files copied over the base export before it is
#              built, e.g. a benchmark file that defines benchmarks the base
#              lacks (default: none)
set -eu

GO=${GO:-go}
PKG=${PKG:-.}
BENCH=${BENCH:-'BenchmarkMondrianCensus|BenchmarkMondrianK10$'}
ROUNDS=${ROUNDS:-10}
OVERLAY=${OVERLAY:-}
rev=${1:-HEAD~}

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$base_sha" | tar -x -C "$tmp/base"
for f in $OVERLAY; do
    mkdir -p "$tmp/base/$(dirname "$f")"
    cp "$root/$f" "$tmp/base/$f"
done
(cd "$tmp/base" && $GO test -c -o "$tmp/base.test" "$PKG")
(cd "$root" && $GO test -c -o "$tmp/head.test" "$PKG")

# Each binary runs from its own package directory, as `go test` would.
run() {
    (cd "$1/$PKG" && "$2" -test.run '^$' -test.bench "$BENCH" -test.benchmem \
        -test.count 1) | grep '^Benchmark' | sed "s/^/$3 /"
}

echo "# base $base_sha vs working tree; $ROUNDS rounds"
i=1
while [ "$i" -le "$ROUNDS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$tmp/base" "$tmp/base.test" base
        run "$root" "$tmp/head.test" head
    else
        run "$root" "$tmp/head.test" head
        run "$tmp/base" "$tmp/base.test" base
    fi
    i=$((i + 1))
done | tee "$tmp/samples"

# Median ns/op and allocs/op per benchmark and side.
echo
echo "# medians: benchmark  base-ns/op  head-ns/op  delta  base-allocs/op  head-allocs/op"
awk '
function median(list,   n, a, i, j, t) {
    n = split(list, a, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
{
    side = $1; name = $2; sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; names[++count] = name }
    for (f = 4; f < NF; f++) {
        if ($(f + 1) == "ns/op") ns[side, name] = ns[side, name] " " $f
        if ($(f + 1) == "allocs/op") al[side, name] = al[side, name] " " $f
    }
}
END {
    for (i = 1; i <= count; i++) {
        n = names[i]
        b = median(ns["base", n]); h = median(ns["head", n])
        printf "%s  %.0f  %.0f  %+.1f%%  %s  %s\n", n, b, h, b ? (h - b) / b * 100 : 0, median(al["base", n]), median(al["head", n])
    }
}' "$tmp/samples"
