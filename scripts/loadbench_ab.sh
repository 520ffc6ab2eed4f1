#!/bin/sh
# End-to-end A/B run of a base revision against the working tree on one host.
#
#   sh scripts/loadbench_ab.sh <rev> <workload> [pairs]
#
# Exports <rev> with `git archive` into a temporary directory (so the
# repository's worktree list is never touched), builds `ppdp` and the load
# generator once per side, the same build as loadbench/run.sh, and runs the
# workload `pairs` times on each side (default 5) with `--trace 0`. Pairs
# alternate which side runs first, base first in odd pairs and head first in
# even ones, so drift on the host and any cost of going first land on both
# sides alike. Both runs of a pair use one seed (SEED for the first pair,
# then SEED+1, ...), so they see the same rows and operation mix.
#
# Every run prints one line, `<pair> <side> seed=<seed> <final JSON line>`,
# also appended to OUT when set. A summary line follows for each of
# cpu_ms_per_req and setup_s: both sides' medians, the base's interquartile
# range, in how many pairs the head's value is the lower, and the two-sided
# Mann–Whitney p-value of the two sides (`benchjson utest`, built from the
# working tree). The script exits non-zero when any run's
# JSON is not "correct": true (a failed check, a late generator, or no
# JSON at all).
#
# Environment:
#   GO        go command (default: go)
#   SEED      seed of the first pair (default: 1)
#   DURATION  measured seconds per run (default: 30)
#   OUT       file the run lines are appended to (default: none)
set -eu

GO=${GO:-go}
SEED=${SEED:-1}
DURATION=${DURATION:-30}
OUT=${OUT:-}
if [ $# -lt 2 ]; then
    echo "usage: sh scripts/loadbench_ab.sh <rev> <workload> [pairs]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-5}

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/loadbench_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir -p "$tmp/base/src" "$tmp/gocache" "$tmp/gotmp" "$tmp/config"
git -C "$root" archive "$base_sha" | tar -x -C "$tmp/base/src"
export GOCACHE="$tmp/gocache" GOTMPDIR="$tmp/gotmp" GOMODCACHE="$tmp/gomodcache" \
    XDG_CONFIG_HOME="$tmp/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# build <source dir> <side>
build() {
    mkdir -p "$tmp/$2/bin" "$tmp/$2/work"
    (cd "$1" && $GO build -o "$tmp/$2/bin/ppdp" ./cmd/ppdp)
    (cd "$1/loadbench" && $GO build -o "$tmp/$2/bin/loadbench" .)
}
build "$tmp/base/src" base
build "$root" head
(cd "$root" && $GO build -o "$tmp/benchjson" ./cmd/benchjson)

failed=0
# run <side> <pair> <seed>
run() {
    bin="$tmp/$1/bin"
    json=$("$bin/loadbench" -ppdp "$bin/ppdp" -workdir "$tmp/$1/work" \
        -workload "$workload" -seed "$3" -seconds "$DURATION" -trace 0 | tail -n 1) || true
    line="$2 $1 seed=$3 $json"
    echo "$line" | tee -a "$tmp/runs"
    if [ -n "$OUT" ]; then
        echo "$line" >> "$OUT"
    fi
    case $json in
    *'"correct": true'* | *'"correct":true'*) ;;
    *) failed=$((failed + 1)) ;;
    esac
}

echo "# base $base_sha vs working tree; $workload, $pairs pairs of $DURATION s"
i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((SEED + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i" "$seed"
        run head "$i" "$seed"
    else
        run head "$i" "$seed"
        run base "$i" "$seed"
    fi
    i=$((i + 1))
done

# metric <name>: "<pair> <side> <value>" for every run that reported it.
metric() {
    sed -n "s/^\([0-9]*\) \([a-z]*\) .*\"$1\": *{\"value\": *\([-0-9.eE+]*\).*/\1 \2 \3/p" "$tmp/runs"
}
# side <metric> <side>: that side's values of the metric, one a line.
side() {
    metric "$1" | awk -v s="$2" '$2 == s { print $3 }'
}
# stats: "<median> <IQR>" of the values on stdin, the quartiles interpolated
# linearly between the closest ranks as benchjson does, or "- -" with none.
stats() {
    sort -g | awk '
        function q(p,  pos, i) { pos = p * (NR - 1); i = int(pos); return i + 1 == NR ? v[i + 1] : v[i + 1] + (pos - i) * (v[i + 2] - v[i + 1]) }
        { v[NR] = $1 }
        END { if (NR == 0) print "- -"; else print q(0.5), q(0.75) - q(0.25) }'
}
echo
for m in cpu_ms_per_req setup_s; do
    set -- $(side "$m" base | stats)
    b=$1 iqr=$2
    h=$(side "$m" head | stats | cut -d' ' -f1)
    p=$("$tmp/benchjson" utest "$(side "$m" base)" "$(side "$m" head)" 2>/dev/null) || p=-
    w=$(metric "$m" | awk '
        { v[$1, $2] = $3; seen[$1] = 1 }
        END {
            for (p in seen) if (((p, "base") in v) && ((p, "head") in v)) { n++; if (v[p, "head"] < v[p, "base"]) w++ }
            printf "%d of %d", w, n
        }')
    echo "# $m: median base $b, head $h; base IQR $iqr; head lower in $w pairs; U test p = $p"
done
if [ "$failed" -gt 0 ]; then
    echo "# $failed run(s) not correct:true" >&2
    exit 1
fi
