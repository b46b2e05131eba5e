#!/usr/bin/env bash
# Paired wall-clock comparison of a git revision against the working tree
# on one hwbench workload.
#
#   tools/perf_pairs.sh <rev> [workload] [N] [seed]
#
# Exports <rev> with `git archive` into build-pairs/base-src (kept for
# the next run against the same revision) and builds hwbench there and
# for the working tree (Release, as benchmark/run.sh and
# tools/digest_parity.sh do). Then runs N interleaved pairs (default
# 10) of `hwbench child --workload W --seed S --trace 0` (default
# workload prod_day, seed 1; another seed is the held-out check of a
# gain claimed at seed 1), one process at a time, the revision first in odd
# pairs and the working tree first in even ones. For every end-to-end
# metric of BENCHMARK.json it prints the revision's median and
# inter-quartile range, the working tree's median, the change of the
# median in percent and in how many pairs the working tree was better.
# peak_rss_mb is each child's ru_maxrss, as hwbench run records it.
# A second table does the same for the BENCHMARK.json per-layer metrics
# that an untraced child reports (sim.ns_per_event, sim.slice_ms_p50,
# setup.wiring_ms, the counts, ...), so the layer that moved shows up in
# the same pairs; a count metric whose value differs between the two
# sides of any pair is flagged there and listed on stderr.
# Exits 1 if any pair's digests differ: a speed-up is only comparable
# when both sides simulated the same run.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 4 ]]; then
  echo "usage: tools/perf_pairs.sh <rev> [workload] [N] [seed]" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev="$(git rev-parse --verify "$1^{commit}")"
workload="${2:-prod_day}"
pairs="${3:-10}"
seed="${4:-1}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_pairs: N must be a positive integer, got '$pairs'" >&2
  exit 2
fi
if ! [[ "$seed" =~ ^[0-9]+$ ]]; then
  echo "perf_pairs: seed must be a non-negative integer, got '$seed'" >&2
  exit 2
fi
out="$root/build-pairs"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
build_hwbench() {  # <source dir> <build dir>
  cmake -S "$1/benchmark" -B "$2" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$2" --target hwbench -j 4 >&2
}

# Re-export only for another revision, so repeated runs against the same
# one (say, one per workload) reuse its build.
if [[ "$(cat "$out/base-rev" 2>/dev/null)" != "$rev" ]]; then
  rm -rf "$out/base-src" "$out/base-rev"
  mkdir -p "$out/base-src"
  # -m: stamp the files now, so a base tree exported over an older one
  # rebuilds instead of reusing objects built from the previous revision.
  git archive "$rev" | tar -x -m -C "$out/base-src"
  echo "$rev" >"$out/base-rev"
fi
build_hwbench "$out/base-src" "$out/base"
build_hwbench "$root" "$out/head"

python3 - "$out/base/hwbench" "$out/head/hwbench" "$workload" "$pairs" \
  "$seed" "$root/BENCHMARK.json" "${rev:0:12}" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

base_bin, head_bin, workload, pairs, seed, spec_path, rev = sys.argv[1:]
pairs = int(pairs)
with open(spec_path) as f:
    spec = json.load(f)
metrics = spec["end_to_end"]


def run(binary):
    """One child rep: its output values plus peak_rss_mb from wait4."""
    proc = subprocess.Popen(
        [binary, "child", "--workload", workload, "--seed", seed,
         "--trace", "0"], stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"perf_pairs: {binary} exited {proc.returncode}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    if doc["failures"]:
        print(f"perf_pairs: {binary}: {doc['failures']}", file=sys.stderr)
    values = dict(doc["values"])
    values["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return doc["digest"], values


runs = {"base": [], "head": []}
mismatches = 0
for i in range(pairs):
    order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
    got = {}
    for side in order:
        got[side] = run(base_bin if side == "base" else head_bin)
        runs[side].append(got[side][1])
    same = got["base"][0] == got["head"][0]
    mismatches += 0 if same else 1
    print(f"pair {i + 1}/{pairs}: digest "
          + (got["head"][0] if same else
             f"DIFF base {got['base'][0]} head {got['head'][0]}")
          + f"  sim_speed base {got['base'][1]['sim_speed']:.6g}"
          + f" head {got['head'][1]['sim_speed']:.6g}", flush=True)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def table(specs):
    """One row per metric that every run reports; returns the names of
    count metrics whose two sides differ in some pair."""
    print(f"{'metric':<24} {'base median':>12} {'base IQR':>10} "
          f"{'head median':>12} {'change':>9} {'wins':>6}")
    differing = []
    for m in specs:
        name = m["name"]
        if not all(name in r for side in runs.values() for r in side):
            continue
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        higher = m["better"] == "higher"
        wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
        q1, q3 = quartiles(base)
        bm, hm = statistics.median(base), statistics.median(head)
        change = (hm - bm) / bm * 100.0 if bm else 0.0
        flag = ""
        if m["unit"] == "count" and base != head:
            differing.append(name)
            flag = "  COUNT DIFFERS"
        print(f"{name:<24} {bm:>12.6g} {q3 - q1:>10.4g} {hm:>12.6g} "
              f"{change:>+8.2f}% {wins:>3}/{pairs}{flag}")
    return differing


print(f"\n{workload} seed {seed}: {pairs} pairs, base {rev} vs working tree")
table(metrics)
print("\nper-layer (untraced child)")
differing = table(spec["per_layer"])
if differing:
    print("perf_pairs: count metrics differ between the sides: "
          + ", ".join(differing), file=sys.stderr)

if mismatches:
    print(f"perf_pairs: {mismatches} of {pairs} pairs simulated different "
          "runs (digests differ)", file=sys.stderr)
    sys.exit(1)
EOF
