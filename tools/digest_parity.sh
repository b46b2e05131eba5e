#!/usr/bin/env bash
# Exactness probe for changes that must not move a single modelled
# outcome: compares hwbench digests of a git revision and the working
# tree.
#
#   tools/digest_parity.sh <rev>
#
# Exports <rev> with `git archive` into build-parity/base-src, builds
# hwbench there and for the working tree (Release, as benchmark/run.sh
# does), then runs `hwbench child --workload W --seed S --scale 1` for
# the four workloads at seeds 1-3. Each digest covers every activation,
# sim.events and the Slurm counters. Prints one line per run and exits 1
# on any mismatch. Children run one at a time; the whole probe takes a
# few minutes after the builds.
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
  cmake --build "$2" --target hwbench -j 4 >&2
}

rm -rf "$out/base-src"
mkdir -p "$out/base-src"
git archive "$rev" | tar -x -C "$out/base-src"
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
if [[ $mismatches -ne 0 ]]; then
  echo "digest_parity: $mismatches of $((${#workloads[@]} * ${#seeds[@]})) runs differ from ${rev:0:12}" >&2
  exit 1
fi
echo "digest_parity: all runs identical to ${rev:0:12}"
