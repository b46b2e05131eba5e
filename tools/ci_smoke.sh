#!/usr/bin/env bash
# CI smoke: configure, build, run the test suite, then a quick bench pass —
# serial and again under HW_BENCH_JOBS=4 (the parallel trial runner, which
# must produce byte-identical output) — and emit the BENCH_perf.json perf
# baseline. With SANITIZE=1 the same parallel bench passes run under
# ASan+UBSan, which is the thread-safety smoke for src/exec.
#
#   SANITIZE=1    build with -DHPCWHISK_SANITIZE=ON (ASan+UBSan) in build-asan/
#   BUILD_DIR=d   override the build directory
#   FULL_BENCH=1  smoke every bench binary instead of just chaos_recovery
#   COVERAGE=1    add an instrumented build (build-cov/), print a gcov
#                 line-coverage summary for src/ and list the src/
#                 functions no test or simcheck seed ever entered
# Near the end it prints tools/knob_census.sh's totals line; the last step
# runs the ctest of hwbench's own build (build-benchmark/).
set -euo pipefail
cd "$(dirname "$0")/.."

# Concurrency lint: only src/exec runs threads. Every other module is
# driven by one sim::Simulation, so a mutex, atomic or thread there
# guards nothing; fail with file:line on any such name or header.
echo "== concurrency lint =="
if grep -rnE \
    '\bstd::(mutex|atomic|thread|shared_mutex|condition_variable)|#[[:space:]]*include[[:space:]]*<(mutex|atomic|thread|shared_mutex|condition_variable)>' \
    src --exclude-dir=exec; then
  echo "concurrency lint: the lines above use threads outside src/exec" >&2
  exit 1
fi

if [[ "${SANITIZE:-0}" == "1" ]]; then
  BUILD_DIR=${BUILD_DIR:-build-asan}
  SAN_FLAG=ON
else
  BUILD_DIR=${BUILD_DIR:-build}
  SAN_FLAG=OFF
fi

cmake -B "$BUILD_DIR" -S . -DHPCWHISK_SANITIZE=$SAN_FLAG
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# The bench regression gate must prove it still catches an injected
# regression before any of its verdicts below are trusted.
"$BUILD_DIR"/tools/bench_diff --self-test

# Compares a fresh quick bench report against the committed baseline
# under tools/bench_diff's per-metric direction/threshold rules, and
# archives the machine-readable verdict next to the report. Runs before
# the baseline-refresh cp steps below, so a regressing PR fails here
# instead of silently rewriting its own baseline. Skipped under
# SANITIZE=1 (wall-clock metrics there measure the sanitizer).
bench_gate() {
  local name=$1 baseline=$2 candidate=$3
  if [[ "${SANITIZE:-0}" == "1" ]]; then return 0; fi
  echo "== bench gate: $name =="
  "$BUILD_DIR"/tools/bench_diff --out "$BUILD_DIR/verdict_$name.json" \
    "$baseline" "$candidate"
}

export HW_BENCH_QUICK=1
if [[ "${FULL_BENCH:-0}" == "1" ]]; then
  for b in "$BUILD_DIR"/bench/*; do
    [[ -x "$b" ]] || continue
    echo "== smoke: $b =="
    "$b"
  done
else
  "$BUILD_DIR"/bench/chaos_recovery
fi

# Parallel trial runner: quick benches again under HW_BENCH_JOBS=4; output
# must be byte-identical to the serial run above.
echo "== parallel smoke (HW_BENCH_JOBS=4) =="
"$BUILD_DIR"/bench/chaos_recovery > "$BUILD_DIR/chaos_serial.txt"
HW_BENCH_JOBS=4 "$BUILD_DIR"/bench/chaos_recovery > "$BUILD_DIR/chaos_par.txt"
cmp "$BUILD_DIR/chaos_serial.txt" "$BUILD_DIR/chaos_par.txt"
HW_BENCH_JOBS=4 HW_BENCH_TRIALS=2 "$BUILD_DIR"/bench/table2_fib > /dev/null

# Observability leg: a traced quick scenario must leave scheduling
# decisions untouched (obs_report hashes the traced and untraced decision
# logs with the same FNV-1a the sched golden test pins), produce a
# structurally valid Perfetto trace, and archive BENCH_obs.json.
echo "== observability smoke =="
HW_OBS_OUT="$BUILD_DIR/BENCH_obs.json" \
  HW_OBS_TRACE_OUT="$BUILD_DIR/obs_trace.json" \
  HW_OBS_METRICS_OUT="$BUILD_DIR/obs_metrics.jsonl" \
  "$BUILD_DIR"/bench/obs_report
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/obs_trace.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert doc["otherData"]["dropped_events"] == 0, "trace dropped events"
assert events, "empty traceEvents"
assert {e["ph"] for e in events} <= {"B", "E", "b", "e", "i", "M"}
assert any(e["name"] == "fast_lane_reroute" for e in events)
print(f"perfetto schema OK ({len(events)} events)")
PYEOF
fi
grep -q '"decision_logs_identical": true' "$BUILD_DIR/BENCH_obs.json"
grep -q '"perfetto_valid": true' "$BUILD_DIR/BENCH_obs.json"
bench_gate obs BENCH_obs.json "$BUILD_DIR/BENCH_obs.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_obs.json" BENCH_obs.json
fi

# Time-series / harvest-efficiency leg: the sampled sim-time series must
# stay within their bounded capacity, every routing decision must carry a
# self-consistent "why" record (the bench's exit code enforces both), and
# the harvest account must not regress against the committed baseline.
echo "== obs timeseries smoke =="
HW_OBS_TS_OUT="$BUILD_DIR/BENCH_obs_timeseries.json" \
  HW_OBS_TS_SERIES_OUT="$BUILD_DIR/obs_timeseries.jsonl" \
  HW_OBS_TS_DECISIONS_OUT="$BUILD_DIR/obs_decisions.jsonl" \
  "$BUILD_DIR"/bench/obs_timeseries
bench_gate obs_timeseries BENCH_obs_timeseries.json \
  "$BUILD_DIR/BENCH_obs_timeseries.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_obs_timeseries.json" BENCH_obs_timeseries.json
fi

# Federation leg: a two-cluster federated sweep across all three routing
# policies must emit a structurally valid BENCH_federation.json and
# conserve calls — every invocation is either placed on a cluster or
# offloaded to the cloud model. (The committed repo-root artifact is the
# full {1,2,4}-cluster sweep: HW_BENCH_QUICK=1 HW_BENCH_TRIALS=3.)
echo "== federation smoke =="
HW_FED_CLUSTERS=2 HW_FED_OUT="$BUILD_DIR/BENCH_federation.json" \
  "$BUILD_DIR"/bench/federation > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_federation.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
legs = doc["legs"]
assert legs, "no federation legs"
for leg in legs:
    assert leg["invocations"] > 0, leg
    assert leg["cluster_calls"] + leg["cloud_calls"] == leg["invocations"], leg
    assert 0.0 <= leg["cloud_offload_fraction"] <= 1.0, leg
    assert leg["cluster_calls"] == 0 or abs(sum(leg["load_share"]) - 1.0) < 1e-6, leg
print(f"federation schema OK ({len(legs)} legs)")
PYEOF
fi

# Routing leg: the six-mode ablation under the short/long mix must emit
# a structurally valid BENCH_routing.json, show zero orphaned backlog
# charges on the data-driven legs (no charge survives its call's
# terminal state), and satisfy the headline acceptance — the best
# data-driven mode beats hash-probing's p95 at an equal-or-better
# warm-start rate (the bench's exit code enforces it).
echo "== routing smoke =="
HW_ROUTING_OUT="$BUILD_DIR/BENCH_routing.json" \
  "$BUILD_DIR"/bench/ablation_routing > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_routing.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
legs = doc["legs"]
assert len(legs) >= 6, "expected one leg per route mode"
sched_legs = 0
for leg in legs:
    assert leg["issued"] > 0 and leg["completed"] > 0, leg
    assert 0.0 <= leg["warm_start_rate"] <= 1.0, leg
    assert leg["p50_ms"] <= leg["p95_ms"] <= leg["p99_ms"], leg
    if "sched" in leg:
        sched_legs += 1
        s = leg["sched"]
        assert s["decisions"] > 0 and s["error_observations"] > 0, leg
        assert s["orphan_charges"] == 0, f"backlog leak: {leg}"
        assert s["end_charges"] <= s["nonterminal"], f"backlog leak: {leg}"
assert sched_legs >= 2, "expected least-expected-work and sjf-affinity legs"
acc = doc["acceptance"]
assert acc["acceptance_ok"], f"routing acceptance failed: {acc}"
print(f"routing schema OK ({len(legs)} legs, {sched_legs} data-driven)")
PYEOF
fi
bench_gate routing BENCH_routing.json "$BUILD_DIR/BENCH_routing.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_routing.json" BENCH_routing.json
fi

# Serving leg: the open-loop QPS sweep over the hot-function mix must
# emit a structurally valid BENCH_serving.json and satisfy the headline
# acceptance — at the top QPS step the lease tier beats the
# controller->topic path on p95 AND cold-start rate while serving a
# majority of calls through the direct seam (the bench's exit code
# enforces it).
echo "== serving smoke =="
HW_SERVING_OUT="$BUILD_DIR/BENCH_serving.json" \
  "$BUILD_DIR"/bench/qps_sweep > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_serving.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
legs = doc["legs"]
assert len(legs) >= 6, "expected baseline+lease legs per QPS step"
lease_legs = 0
for leg in legs:
    assert leg["issued"] > 0 and leg["completed"] > 0, leg
    assert 0.0 <= leg["cold_start_rate"] <= 1.0, leg
    assert leg["p50_ms"] <= leg["p95_ms"] <= leg["p99_ms"], leg
    if leg["mode"] == "lease":
        lease_legs += 1
        ls = leg["lease"]
        assert ls["hits"] == 0 or ls["granted"] > 0, leg
        assert 0.0 <= ls["hit_rate"] <= 1.0, leg
assert lease_legs * 2 == len(legs), "unpaired lease/baseline legs"
acc = doc["acceptance"]
assert acc["acceptance_ok"], f"serving acceptance failed: {acc}"
print(f"serving schema OK ({len(legs)} legs, {lease_legs} leased)")
PYEOF
fi
bench_gate serving BENCH_serving.json "$BUILD_DIR/BENCH_serving.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_serving.json" BENCH_serving.json
fi

# Fidelity leg: the four-regime Slurm-fidelity ablation must emit a
# structurally valid BENCH_fidelity.json and satisfy its acceptance
# contract — the regimes diverge on harvested node-seconds and p95, the
# legacy golden decision-log hash is intact (fidelity knobs are opt-in),
# and a SimCheck mini-campaign over the new regimes is invariant-clean
# (the bench's exit code enforces all three).
echo "== fidelity smoke =="
HW_FIDELITY_OUT="$BUILD_DIR/BENCH_fidelity.json" \
  "$BUILD_DIR"/bench/ablation_fidelity > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$BUILD_DIR/BENCH_fidelity.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
legs = doc["legs"]
assert len(legs) >= 4, "expected one leg per fidelity regime"
regimes = {leg["regime"] for leg in legs}
assert regimes == {"legacy", "tres", "tres+resv", "tres+resv+qos"}, regimes
for leg in legs:
    assert leg["jobs_started"] > 0 and leg["completed"] > 0, leg
    assert leg["harvested_node_s"] > 0, leg
    assert 0.0 <= leg["harvest_efficiency"] <= 1.0, leg
    assert 0.0 <= leg["cold_start_rate"] <= 1.0, leg
    assert leg["p50_ms"] <= leg["p95_ms"], leg
agg = doc["regimes"]
assert agg["tres"]["harvested_node_s"] > agg["legacy"]["harvested_node_s"], \
    "fractional-node harvesting must beat whole-node harvesting"
assert doc["golden"]["hash"] == doc["golden"]["expected"], doc["golden"]
assert doc["simcheck"]["failures"] == 0, doc["simcheck"]
acc = doc["acceptance"]
assert acc["acceptance_ok"], f"fidelity acceptance failed: {acc}"
print(f"fidelity schema OK ({len(legs)} legs, {len(regimes)} regimes)")
PYEOF
fi
bench_gate fidelity BENCH_fidelity.json "$BUILD_DIR/BENCH_fidelity.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_fidelity.json" BENCH_fidelity.json
fi

# SimCheck leg: fuzz ~20 random chaos + federation seeds against the
# invariant suite. A clean tree must sweep clean; any failure leaves a
# shrunk, replayable repro JSON under $BUILD_DIR/simcheck-repros/ (the
# CI failure artifact — replay locally with `simcheck --replay FILE`).
echo "== simcheck sweep =="
if ! "$BUILD_DIR"/tools/simcheck --seeds 20 --chaos --clusters 3 \
    --out "$BUILD_DIR/simcheck-repros"; then
  echo "simcheck: FAILED — repros archived in $BUILD_DIR/simcheck-repros/" >&2
  exit 1
fi

# Coverage leg (COVERAGE=1): separate instrumented build, tier-1 suite +
# a simcheck sweep to exercise src/check, then a gcov line-coverage
# summary for src/ and the list of src/ functions with zero executed
# lines, sorted by file — the candidate list of a dead-code audit. The
# list is informational and gates nothing. Uses plain gcov (ships with
# GCC) so no extra tools are needed.
if [[ "${COVERAGE:-0}" == "1" ]]; then
  echo "== coverage (tier1 + simcheck over instrumented build) =="
  COV_DIR=${COV_DIR:-build-cov}
  cmake -B "$COV_DIR" -S . -DHPCWHISK_COVERAGE=ON -DHPCWHISK_BUILD_BENCH=OFF \
    -DHPCWHISK_BUILD_EXAMPLES=OFF
  cmake --build "$COV_DIR" -j"$(nproc)"
  ctest --test-dir "$COV_DIR" -L tier1 --output-on-failure
  "$COV_DIR"/tools/simcheck --seeds 5 --chaos --clusters 2 > /dev/null
  python3 - "$COV_DIR" <<'PYEOF'
import json, os, subprocess, sys
cov_dir = sys.argv[1]
gcda = [os.path.abspath(os.path.join(r, f)) for r, _, fs in os.walk(cov_dir)
        for f in fs if f.endswith(".gcda")]
per_file = {}  # source path -> (covered, total)
for chunk in (gcda[i:i + 64] for i in range(0, len(gcda), 64)):
    out = subprocess.run(["gcov", "-n"] + chunk,
                         capture_output=True, text=True).stdout
    src = None
    for line in out.splitlines():
        if line.startswith("File "):
            src = line.split("'")[1]
        elif line.startswith("No executable lines"):
            src = None  # keeps the trailing summary line unattributed
        elif line.startswith("Lines executed:") and src:
            pct, total = line.split(":")[1].split(" of ")
            total = int(total)
            covered = round(float(pct.rstrip("% ")) / 100 * total)
            # Object files share headers; the same source shows up once
            # per including TU, so keep the best-covered sighting.
            if "/src/" in src:
                old = per_file.get(src, (0, 0))
                per_file[src] = (max(old[0], covered), max(old[1], total))
            src = None
covered = sum(c for c, _ in per_file.values())
total = sum(t for _, t in per_file.values())
assert total > 0, "no coverage data for src/ — did the tests run?"
print(f"line coverage (src/): {100.0 * covered / total:.1f}% "
      f"({covered}/{total} lines over {len(per_file)} files)")

# Function-level view: the per-function counts `gcov -f` prints. Its
# text form does not say which file a function lives in, so read gcov's
# JSON form, which carries the same counts with their source file. A
# function compiled into several objects (headers, templates) counts as
# executed if any object ran it.
root = os.getcwd()
funcs = {}  # (relative source, start line, name) -> executed anywhere
for chunk in (gcda[i:i + 64] for i in range(0, len(gcda), 64)):
    out = subprocess.run(["gcov", "--json-format", "--stdout"] + chunk,
                         capture_output=True, text=True).stdout
    for doc in out.splitlines():
        if not doc.startswith("{"):
            continue
        doc = json.loads(doc)
        for f in doc["files"]:
            path = os.path.join(doc["current_working_directory"], f["file"])
            rel = os.path.relpath(path, root)
            if not rel.startswith("src/"):
                continue
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                funcs[key] = funcs.get(key, False) or fn["execution_count"] > 0
never = sorted(k for k, ran in funcs.items() if not ran)
print(f"functions never executed (src/): {len(never)} of {len(funcs)}")
for rel, line, name in never:
    print(f"  {rel}:{line}  {name}")
PYEOF
fi

# Machine-readable perf baseline, archived in the build dir (and at the
# repo root for the non-sanitizer run, where timings are meaningful).
echo "== perf baseline =="
HW_PERF_OUT="$BUILD_DIR/BENCH_perf.json" "$BUILD_DIR"/bench/perf_report

# Schema + floor validation: the JSON must carry the alloc-probe fields,
# steady-state allocations must stay below 0.1/event, and a quick-mode
# run on an unloaded host must clear 3M events/s (the post-overhaul hot
# path does >9M; 3M is the regression tripwire, with headroom for noisy
# shared CI hosts). Sanitizer builds check schema only — their timings
# and allocation profiles measure the sanitizer, not the simulator.
python3 - "$BUILD_DIR/BENCH_perf.json" "${SANITIZE:-0}" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
sanitize = sys.argv[2] == "1"
for key in ("bench", "quick", "alloc_probe", "hw_threads", "experiments",
            "sweep"):
    assert key in report, f"BENCH_perf.json missing key {key!r}"
assert report["experiments"], "BENCH_perf.json has no experiments"
for exp in report["experiments"]:
    for key in ("name", "wall_s", "events", "events_per_sec",
                "events_in_window", "allocs_in_window", "allocs_per_event"):
        assert key in exp, f"experiment {exp.get('name')} missing {key!r}"
sweep = report["sweep"]
assert sweep["outputs_identical"] is True, "sweep outputs diverged"
if sweep.get("speedup_skipped"):
    assert sweep.get("speedup_skipped_reason"), "skipped speedup needs a reason"
else:
    assert isinstance(sweep.get("speedup"), (int, float)), "speedup missing"
if not sanitize:
    assert report["alloc_probe"] is True, "perf_report lost the alloc probe"
    for exp in report["experiments"]:
        ape = exp["allocs_per_event"]
        assert ape < 0.1, f"{exp['name']}: {ape:.3f} allocs/event (floor 0.1)"
    if report["quick"]:
        best = max(e["events_per_sec"] for e in report["experiments"])
        assert best >= 3e6, f"best experiment {best:.3g} events/s < 3M floor"
        print(f"perf floors OK (best {best / 1e6:.1f}M events/s)")
print("BENCH_perf.json schema OK")
PYEOF

bench_gate perf BENCH_perf.json "$BUILD_DIR/BENCH_perf.json"
if [[ "${SANITIZE:-0}" != "1" ]]; then
  cp "$BUILD_DIR/BENCH_perf.json" BENCH_perf.json
fi

# (The committed BENCH_federation.json is the full {1,2,4}-cluster sweep
# at HW_BENCH_TRIALS=3; the smoke above runs a single 2-cluster leg, so
# there is no matching committed baseline to gate against here.)

# Informational, gates nothing: how many src/ Config members exist and
# how many of them only tests set (candidates for named constants).
echo "== knob census =="
tools/knob_census.sh --totals

# Benchmark leg: hwbench's own Release build in build-benchmark/ (the
# tree benchmark/run.sh uses) and its ctest: the compare self-test plus a
# smoke run of every workload at seeds 1 and 2. The smoke runs check the
# activation ledger ("every issued call has exactly one activation
# record", "accepted = completed + failed + timed_out + in_flight"), the
# checks an activation-store change breaks first.
echo "== hwbench ctest =="
if [[ ! -f build-benchmark/CMakeCache.txt ]]; then
  cmake -S benchmark -B build-benchmark -DCMAKE_BUILD_TYPE=Release
fi
cmake --build build-benchmark --target hwbench -j"$(nproc)"
ctest --test-dir build-benchmark --output-on-failure

echo "ci_smoke: OK"
