#!/usr/bin/env bash
# Exactness probe for changes that must not move a single modelled
# outcome: compares hwbench digests and SimCheck decision hashes of a git
# revision and the working tree.
#
#   tools/digest_parity.sh <rev>
#
# Exports <rev> with `git archive` into build-parity/base-src, builds
# hwbench and simcheck there and for the working tree (Release, as
# benchmark/run.sh does), then
#  * runs `hwbench child --workload W --seed S --scale 1` for the four
#    workloads at seeds 1-3. Each digest covers every activation,
#    sim.events and the Slurm counters;
#  * runs two 200-seed simcheck campaigns, fault-free and
#    `--chaos --clusters 3`, without shrinking, and diffs their per-seed
#    lines (decision-log hash, or the first violation of a failing seed).
# Prints one line per hwbench run and per differing seed, and exits 1 on
# any mismatch. The whole probe takes a few minutes after the builds.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/digest_parity.sh <rev>" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev="$(git rev-parse --verify "$1^{commit}")"
out="$root/build-parity"
workloads=(prod_day hot_lease mixed_route tres_day)
seeds=(1 2 3)

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
build_hwbench() {  # <source dir> <build dir>
  cmake -S "$1/benchmark" -B "$2" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$2" --target hwbench simcheck -j 4 >&2
}

rm -rf "$out/base-src"
mkdir -p "$out/base-src"
# -m: stamp the files now, so a base tree exported over an older one
# rebuilds instead of reusing objects built from the previous revision.
git archive "$rev" | tar -x -m -C "$out/base-src"
build_hwbench "$out/base-src" "$out/base"
build_hwbench "$root" "$out/head"

digest() {  # <hwbench> <workload> <seed>
  "$1" child --workload "$2" --seed "$3" --scale 1 |
    sed -n 's/.*"digest": *"\([0-9a-f]*\)".*/\1/p'
}

mismatches=0
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    base="$(digest "$out/base/hwbench" "$w" "$s")"
    head="$(digest "$out/head/hwbench" "$w" "$s")"
    if [[ -n "$base" && "$base" == "$head" ]]; then
      echo "same  $w seed $s  $head"
    else
      echo "DIFF  $w seed $s  base ${base:-?} head ${head:-?}"
      mismatches=$((mismatches + 1))
    fi
  done
done

campaign() {  # <build dir> <simcheck args...>: per-seed lines, seed order
  local build=$1
  shift
  "$build/hpcwhisk/tools/simcheck" --seeds 200 --no-shrink "$@" |
    grep '^seed '
}

campaigns=("" "--chaos --clusters 3")
for args in "${campaigns[@]}"; do
  # shellcheck disable=SC2086  # $args is a flag list
  moved="$({ diff <(campaign "$out/base" $args) \
    <(campaign "$out/head" $args) || true; } |
    sed -n 's/^[<>] seed \([0-9]*\):.*/\1/p' | sort -nu | tr '\n' ' ')"
  if [[ -z "$moved" ]]; then
    echo "same  simcheck ${args:-fault-free}: 200 seeds"
  else
    echo "DIFF  simcheck ${args:-fault-free}: seeds $moved"
    mismatches=$((mismatches + $(wc -w <<<"$moved")))
  fi
done

if [[ $mismatches -ne 0 ]]; then
  echo "digest_parity: $mismatches hwbench runs or simcheck seeds differ from ${rev:0:12}" >&2
  exit 1
fi
echo "digest_parity: all runs identical to ${rev:0:12}"
