#!/usr/bin/env bash
# Builds hwbench into build-benchmark/ and runs it from the repository root.
#
#   benchmark/run.sh                      every workload, 3 reps + traced rep
#   benchmark/run.sh --workload prod_day --seed 3 --seconds 15 --trace 0
#
# Arguments go to `hwbench run`; see benchmark/README.md. Build output goes
# to stderr so the runner's report is all that stdout carries.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no hpcwhisk sources next to benchmark/" >&2
  exit 1
fi

build=build-benchmark
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target hwbench -j 4 >&2
exec "$build/hwbench" run "$@"
