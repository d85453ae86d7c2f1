#!/usr/bin/env bash
# A/B of the benchmark: the working tree against a git ref, in alternating
# pairs of runs, judged by BENCHMARK.json's end-to-end metrics and bounds.
#
#   scripts/bench-ab.sh <ref> [-w workload]... [-n pairs] [-s seconds] [-t]
#
# <ref> is checked out detached under .bench_build/ab/base (a git worktree,
# removed on exit) and the working tree's bench/ is copied over it, so both
# sides run one harness, each against its own library. Both are built as
# bench/run.sh builds and each runs from its own root. Pair i runs seed i,
# untraced (--trace 0), the ref first when i is odd and the working tree
# first when it is even. Defaults: every workload, 10 pairs, 15 seconds.
#
# Per workload and metric — the end-to-end ones, then the result files'
# raw_p50_us and calib_us — it prints each side's median [q1, q3], the
# paired difference (change − base) / |base| of each pair as median [q1,
# q3], the pairs the working tree won, and whether a gain may be claimed:
# won in at least 9 of 10 pairs, with medians further apart than the ref's
# q3 − q1. The host drifts between runs by more than a bound, so the gate is
# on the pairs: it exits 1 when the median paired difference of a metric is
# worse than the metric's BENCHMARK.json bound, or when a run of the working
# tree failed an operation. Every run's result line is appended to
# .bench_build/ab/runs.jsonl.
#
# -t adds a traced pair (--trace 1, same seed and order) after each untraced
# one, and prints for every per_layer metric of BENCHMARK.json that either
# side reported each side's median [q1, q3], the median paired difference
# and the wins. These rows are not gated; the gate stays on the untraced
# pairs.
set -euo pipefail

usage() {
  echo "usage: $0 <ref> [-w workload]... [-n pairs] [-s seconds] [-t]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
ref=$1
shift
workloads=()
pairs=10
seconds=15
traces=(0)
while getopts "w:n:s:t" opt; do
  case $opt in
    w) workloads+=("$OPTARG") ;;
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    t) traces=(0 1) ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -eq 0 ] || usage

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
ab=$root/.bench_build/ab
base=$ab/base
runs=$ab/runs.jsonl
mkdir -p "$ab"

sha=$(git rev-parse --verify "$ref^{commit}")
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --quiet --detach "$base" "$sha"
trap 'git -C "$root" worktree remove --force "$base" 2>/dev/null || true' EXIT
rm -rf "$base/bench"
tar -C "$root" -cf - --exclude=bench/out bench | tar -C "$base" -xf -

# build builds the benchmark of the checkout at $1 the way bench/run.sh does,
# into $1/.bench_build; the two builds share the working tree's Go caches.
build() {
  mkdir -p "$1/.bench_build"
  (cd "$1/bench" && GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=auto go build -o "$1/.bench_build/bench" .)
}
build "$base"
build "$root"

session=$(date +%Y%m%dT%H%M%S)-$$
for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    order="base change"
    if ((i % 2 == 0)); then order="change base"; fi
    for trace in "${traces[@]}"; do
      for side in $order; do
        dir=$root
        if [ "$side" = base ]; then dir=$base; fi
        line=$(cd "$dir" && .bench_build/bench --workload "$w" --seed "$i" --seconds "$seconds" --trace "$trace" | tail -n 1)
        python3 - "$session" "$side" "$sha" "$w" "$i" "$trace" "$line" "$dir/bench/out/$w-seed$i-trace$trace.json" >>"$runs" <<'EOF'
import json, sys
session, side, sha, workload, seed, trace, line, path = sys.argv[1:]
extra = json.load(open(path))
print(json.dumps({"session": session, "side": side, "base": sha, "workload": workload, "seed": int(seed),
                  "trace": int(trace), "raw_p50_us": extra.get("raw_p50_us"), "calib_us": extra.get("calib_us"),
                  "result": json.loads(line)}))
EOF
        echo "$w pair $i: $side done (trace $trace)" >&2
      done
    done
  done
done

python3 - "$session" "$runs" "$ref" <<'EOF'
import json, statistics, sys
session, path, ref = sys.argv[1:]
rows = [r for r in map(json.loads, open(path)) if r["session"] == session]
traced = [r for r in rows if r.get("trace")]
rows = [r for r in rows if not r.get("trace")]
bench = json.load(open("BENCHMARK.json"))

def cut(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3

def fmt(xs):
    q1, q2, q3 = cut(xs)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"

def pct(xs):
    q1, q2, q3 = cut(xs)
    return f"{100 * q2:+.1f} [{100 * q1:+.1f}, {100 * q3:+.1f}] %"

def paired(bv, cv):
    if bv == cv:
        return 0.0
    return (cv - bv) / abs(bv) if bv else float("inf") if cv > bv else float("-inf")

bad = False
for w in dict.fromkeys(r["workload"] for r in rows):
    by = {side: {r["seed"]: r for r in rows if r["workload"] == w and r["side"] == side} for side in ("base", "change")}
    seeds = sorted(set(by["base"]) & set(by["change"]))
    print(f"\n{w}: {ref} (base) against the working tree (change), {len(seeds)} pairs")
    print(f"  {'metric':<14} {'base':<34} {'change':<34} {'paired difference':<28} wins   claim  verdict")
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [("raw_p50_us", "lower", None), ("calib_us", "lower", None)]
    for name, better, bound in metrics:
        def value(r):
            return r["result"]["metrics"][name]["value"] if bound is not None else r[name]
        b = [value(by["base"][s]) for s in seeds]
        c = [value(by["change"][s]) for s in seeds]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (cv - bv) < 0 for bv, cv in zip(b, c))
        diffs = [paired(bv, cv) for bv, cv in zip(b, c)]
        q1, mb, q3 = cut(b)
        mc = statistics.median(c)
        claim = "yes" if 10 * wins >= 9 * len(seeds) and sign * (mc - mb) < 0 and abs(mc - mb) > q3 - q1 else "no"
        median_diff = statistics.median(diffs)
        if bound is None:
            verdict = "not gated"
        elif sign * median_diff > bound:
            verdict = f"WORSE than the {100 * bound:.0f} % bound"
            bad = True
        else:
            verdict = f"within the {100 * bound:.0f} % bound"
        print(f"  {name:<14} {fmt(b):<34} {fmt(c):<34} {pct(diffs):<28} {wins:>2}/{len(seeds):<2}  {claim:<5}  {verdict}")
    for side in ("base", "change"):
        res = [by[side][s]["result"] for s in seeds]
        failed = sum(r["failed"] for r in res)
        print(f"  {side}: correct in {sum(r['correct'] for r in res)} of {len(res)} runs, {failed} failed operations")
        if side == "change" and (failed or not all(r["correct"] for r in res)):
            bad = True
    by = {side: {r["seed"]: r for r in traced if r["workload"] == w and r["side"] == side} for side in ("base", "change")}
    seeds = sorted(set(by["base"]) & set(by["change"]))
    if not seeds:
        continue
    print(f"\n{w}, traced (--trace 1), {len(seeds)} pairs, not gated; metrics both sides report as 0 are left out")
    print(f"  {'metric':<36} {'base':<34} {'change':<34} {'paired difference':<28} wins")
    for m in bench["per_layer"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        b = [by["base"][s]["result"]["metrics"].get(name, {}).get("value", 0) for s in seeds]
        c = [by["change"][s]["result"]["metrics"].get(name, {}).get("value", 0) for s in seeds]
        if not any(b) and not any(c):
            continue
        wins = sum(sign * (cv - bv) < 0 for bv, cv in zip(b, c))
        diffs = [paired(bv, cv) for bv, cv in zip(b, c)]
        print(f"  {name:<36} {fmt(b):<34} {fmt(c):<34} {pct(diffs):<28} {wins:>2}/{len(seeds)}")
sys.exit(1 if bad else 0)
EOF
