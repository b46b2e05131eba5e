#pragma once
// Core of the bench regression gate (tools/bench_diff): a flattener from
// nested documents to dotted metric paths, and the per-metric
// direction/threshold comparison between two BENCH_*.json reports.
// Header-only so the unit tests exercise exactly the code the CLI runs.
//
// The gate's contract:
//  * both reports must carry the common metadata header written by
//    bench::write_meta_header — same schema_version AND same bench name,
//    otherwise the diff is refused (kSchemaMismatch, exit 2 in the CLI);
//  * each built-in rule names a bench, a path glob ('*' matches any run
//    of characters, so "modes.*.p95_ms" and "experiments[*].events_per_sec"
//    both work), a direction and a tolerance; a metric regresses when it
//    moves against its direction by more than max(rel_tol * |baseline|,
//    abs_tol), disappears from the candidate, or changes JSON type;
//  * paths present only in the candidate are new metrics, never failures:
//    baselines regenerate on the same cadence as the code they pin.
//
// Everything lives in namespace hpcwhisk::benchdiff and depends only on
// the standard library and the header-only JSON reader.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "hpcwhisk/obs/json.hpp"

namespace hpcwhisk::benchdiff {

// ---------------------------------------------------------------------------
// Documents come from the shared reader (hpcwhisk/obs/json.hpp).

using obs::JsonParser;
using obs::JsonValue;

/// Flattens a document to dotted paths: {"a":{"b":1},"c":[true]} becomes
/// {"a.b": 1, "c[0]": true}. Scalars only; containers themselves do not
/// appear. Ordered map: verdict output is deterministic.
inline void flatten(const JsonValue& v, const std::string& prefix,
                    std::map<std::string, JsonValue>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      for (const auto& [k, m] : v.members) {
        flatten(m, prefix.empty() ? k : prefix + "." + k, out);
      }
      break;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        flatten(v.items[i], prefix + "[" + std::to_string(i) + "]", out);
      }
      break;
    default:
      out.emplace(prefix, v);
      break;
  }
}

/// Glob match where '*' matches any run of characters (including none)
/// and every other character is literal. Iterative backtracking — no
/// recursion, no pathological blowup on the short metric paths here.
inline bool glob_match(std::string_view pattern, std::string_view text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

// ---------------------------------------------------------------------------
// Rules and the diff itself.

enum class Direction {
  kLowerBetter,   ///< numeric; candidate may not exceed baseline + tol
  kHigherBetter,  ///< numeric; candidate may not undershoot baseline - tol
  kRequireTrue,   ///< boolean; candidate must be true (baseline ignored)
  kExact,         ///< any scalar; candidate must equal baseline exactly
};

struct Rule {
  std::string_view bench;    ///< bench name this rule applies to
  std::string_view pattern;  ///< path glob over flattened metric paths
  Direction dir{Direction::kExact};
  double rel_tol{0};  ///< allowed regression relative to |baseline|
  double abs_tol{0};  ///< allowed absolute regression
};

/// The built-in gate: one entry per metric CI pins. Tolerances separate
/// wall-clock metrics (noisy on shared hosts — generous rel_tol) from
/// sim-deterministic ones (identical for identical code — tight).
inline const std::vector<Rule>& default_rules() {
  static const std::vector<Rule> rules{
      // obs_report: decision neutrality is exact; overhead is wall-clock
      // but ratio-of-rates, so an absolute ceiling works; throughput is
      // raw wall-clock.
      {"obs_report", "decision_logs_identical", Direction::kRequireTrue},
      {"obs_report", "perfetto_valid", Direction::kRequireTrue},
      {"obs_report", "reroute_across_invokers", Direction::kRequireTrue},
      {"obs_report", "decision_log_hash", Direction::kExact},
      {"obs_report", "decision_log_bytes", Direction::kExact},
      // The counts of the run the hash pins are as deterministic as the
      // hash; a baseline whose counts drift no longer describes its run.
      {"obs_report", "events", Direction::kExact},
      {"obs_report", "trace_events", Direction::kExact},
      {"obs_report", "fast_lane_reroute_events", Direction::kExact},
      {"obs_report", "traced_overhead", Direction::kLowerBetter, 0, 0.10},
      {"obs_report", "trace_dropped", Direction::kLowerBetter, 0, 0},
      {"obs_report", "untraced_events_per_sec", Direction::kHigherBetter, 0.5,
       0},
      {"obs_report", "harvest.efficiency", Direction::kHigherBetter, 0, 0.05},
      // perf_report: event counts and allocation profile are
      // deterministic; wall-clock throughput is not.
      {"perf_report", "sweep.outputs_identical", Direction::kRequireTrue},
      {"perf_report", "alloc_probe", Direction::kRequireTrue},
      {"perf_report", "experiments[*].events", Direction::kExact},
      {"perf_report", "experiments[*].events_per_sec",
       Direction::kHigherBetter, 0.5, 0},
      {"perf_report", "experiments[*].allocs_per_event",
       Direction::kLowerBetter, 0.10, 0.005},
      // ablation_routing: fully sim-deterministic, but small intended
      // estimator/policy drift shouldn't force a baseline churn loop —
      // the acceptance flag is the hard gate.
      {"ablation_routing", "acceptance.acceptance_ok", Direction::kRequireTrue},
      {"ablation_routing", "modes.*.p95_ms", Direction::kLowerBetter, 0.15, 0},
      {"ablation_routing", "modes.*.warm_start_rate", Direction::kHigherBetter,
       0, 0.05},
      {"ablation_routing", "legs[*].sched.orphan_charges",
       Direction::kLowerBetter, 0, 0},
      // federation: headline acceptance plus the power-of-two leg.
      {"federation", "p2c_beats_rr", Direction::kRequireTrue},
      {"federation", "p2c_beats_single_cluster", Direction::kRequireTrue},
      {"federation", "federated_power_of_two.cloud_offload_fraction",
       Direction::kLowerBetter, 0, 0.10},
      {"federation", "federated_power_of_two.p95_ms", Direction::kLowerBetter,
       0.15, 0},
      // obs_timeseries: the tier's own contract flags plus the harvest
      // account.
      {"obs_timeseries", "series_ok", Direction::kRequireTrue},
      {"obs_timeseries", "decisions_ok", Direction::kRequireTrue},
      {"obs_timeseries", "harvest_ok", Direction::kRequireTrue},
      {"obs_timeseries", "harvest.efficiency", Direction::kHigherBetter, 0,
       0.05},
      {"obs_timeseries", "decisions_recorded", Direction::kHigherBetter, 0.5,
       0},
      // qps_sweep (BENCH_serving.json): the lease tier must keep beating
      // the controller->topic path at the top QPS step — lower p95 and
      // cold-start rate, a majority lease hit rate — with slack for
      // intended keep-alive / estimator drift.
      {"qps_sweep", "acceptance.acceptance_ok", Direction::kRequireTrue},
      {"qps_sweep", "acceptance.hit_rate_ok", Direction::kRequireTrue},
      {"qps_sweep", "top.lease.p95_ms", Direction::kLowerBetter, 0.15, 0},
      {"qps_sweep", "top.lease.cold_start_rate", Direction::kLowerBetter, 0,
       0.05},
      {"qps_sweep", "top.lease.hit_rate", Direction::kHigherBetter, 0, 0.05},
      {"qps_sweep", "top.lease.revocation_rate", Direction::kLowerBetter, 0,
       0.10},
      // ablation_fidelity (BENCH_fidelity.json): the four acceptance
      // flags are the hard gate (regimes diverge, golden pin intact,
      // SimCheck clean); the per-regime aggregates get slack for
      // intended scheduler drift, and the TRES harvest advantage over
      // legacy must not silently erode.
      {"ablation_fidelity", "acceptance.acceptance_ok",
       Direction::kRequireTrue},
      {"ablation_fidelity", "acceptance.golden_hash_ok",
       Direction::kRequireTrue},
      {"ablation_fidelity", "acceptance.simcheck_clean",
       Direction::kRequireTrue},
      {"ablation_fidelity", "golden.hash", Direction::kExact},
      {"ablation_fidelity", "simcheck.failures", Direction::kLowerBetter, 0,
       0},
      {"ablation_fidelity", "regimes.*.harvested_node_s",
       Direction::kHigherBetter, 0.15, 0},
      {"ablation_fidelity", "regimes.*.p95_ms", Direction::kLowerBetter, 0.15,
       0},
      {"ablation_fidelity", "regimes.*.harvest_efficiency",
       Direction::kHigherBetter, 0, 0.05},
  };
  return rules;
}

enum class CheckStatus { kPass, kRegression, kMissing, kTypeChanged };

struct Check {
  std::string path;
  Direction dir{Direction::kExact};
  CheckStatus status{CheckStatus::kPass};
  double baseline{0};
  double candidate{0};
  std::string detail;  ///< non-numeric values / failure explanation
};

enum class Verdict { kPass, kFail, kSchemaMismatch };

struct DiffResult {
  Verdict verdict{Verdict::kPass};
  std::string bench;          ///< from the baseline header
  int schema_version{0};      ///< from the baseline header
  std::string mismatch;       ///< set when verdict == kSchemaMismatch
  std::vector<Check> checks;  ///< one per (rule, matched baseline path)
  std::size_t regressions{0};

  [[nodiscard]] int exit_code() const {
    switch (verdict) {
      case Verdict::kPass: return 0;
      case Verdict::kFail: return 1;
      case Verdict::kSchemaMismatch: return 2;
    }
    return 2;
  }
};

inline const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kFail: return "fail";
    case Verdict::kSchemaMismatch: return "schema-mismatch";
  }
  return "?";
}

inline const char* to_string(CheckStatus s) {
  switch (s) {
    case CheckStatus::kPass: return "pass";
    case CheckStatus::kRegression: return "regression";
    case CheckStatus::kMissing: return "missing";
    case CheckStatus::kTypeChanged: return "type-changed";
  }
  return "?";
}

inline const char* to_string(Direction d) {
  switch (d) {
    case Direction::kLowerBetter: return "lower-better";
    case Direction::kHigherBetter: return "higher-better";
    case Direction::kRequireTrue: return "require-true";
    case Direction::kExact: return "exact";
  }
  return "?";
}

namespace detail {

inline std::string scalar_repr(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kString: return v.string;
    case JsonValue::Kind::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", v.number);
      return buf;
    }
    case JsonValue::Kind::kNull: return "null";
    default: return "<container>";
  }
}

inline bool scalar_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kBool: return a.boolean == b.boolean;
    case JsonValue::Kind::kString: return a.string == b.string;
    case JsonValue::Kind::kNumber: return a.number == b.number;
    case JsonValue::Kind::kNull: return true;
    default: return false;
  }
}

inline Check compare_one(const std::string& path, const Rule& rule,
                         const JsonValue& base, const JsonValue* cand) {
  Check c;
  c.path = path;
  c.dir = rule.dir;
  if (cand == nullptr) {
    c.status = CheckStatus::kMissing;
    c.detail = "metric absent from candidate";
    return c;
  }
  switch (rule.dir) {
    case Direction::kRequireTrue:
      if (cand->kind != JsonValue::Kind::kBool) {
        c.status = CheckStatus::kTypeChanged;
        c.detail = "expected bool, got " + scalar_repr(*cand);
      } else if (!cand->boolean) {
        c.status = CheckStatus::kRegression;
        c.detail = "expected true";
      }
      return c;
    case Direction::kExact:
      if (!scalar_equal(base, *cand)) {
        c.status = base.kind == cand->kind ? CheckStatus::kRegression
                                           : CheckStatus::kTypeChanged;
        c.detail = scalar_repr(base) + " -> " + scalar_repr(*cand);
      }
      return c;
    case Direction::kLowerBetter:
    case Direction::kHigherBetter: {
      if (base.kind != JsonValue::Kind::kNumber ||
          cand->kind != JsonValue::Kind::kNumber) {
        c.status = CheckStatus::kTypeChanged;
        c.detail = scalar_repr(base) + " -> " + scalar_repr(*cand);
        return c;
      }
      c.baseline = base.number;
      c.candidate = cand->number;
      const double tol =
          std::max(rule.rel_tol * std::fabs(base.number), rule.abs_tol);
      const bool regressed = rule.dir == Direction::kLowerBetter
                                 ? cand->number > base.number + tol
                                 : cand->number < base.number - tol;
      if (regressed) {
        c.status = CheckStatus::kRegression;
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.6g -> %.6g (tolerance %.6g, %s)",
                      base.number, cand->number, tol, to_string(rule.dir));
        c.detail = buf;
      }
      return c;
    }
  }
  return c;
}

}  // namespace detail

/// Diffs two parsed reports under `rules`. Never throws; refusals are
/// reported through verdict == kSchemaMismatch.
inline DiffResult diff(const JsonValue& baseline, const JsonValue& candidate,
                       const std::vector<Rule>& rules = default_rules()) {
  DiffResult r;
  const JsonValue* b_schema = baseline.find("schema_version");
  const JsonValue* c_schema = candidate.find("schema_version");
  const JsonValue* b_bench = baseline.find("bench");
  const JsonValue* c_bench = candidate.find("bench");
  if (b_schema == nullptr || b_bench == nullptr ||
      b_schema->kind != JsonValue::Kind::kNumber ||
      b_bench->kind != JsonValue::Kind::kString) {
    r.verdict = Verdict::kSchemaMismatch;
    r.mismatch = "baseline lacks the schema_version/bench metadata header";
    return r;
  }
  if (c_schema == nullptr || c_bench == nullptr ||
      c_schema->kind != JsonValue::Kind::kNumber ||
      c_bench->kind != JsonValue::Kind::kString) {
    r.verdict = Verdict::kSchemaMismatch;
    r.mismatch = "candidate lacks the schema_version/bench metadata header";
    return r;
  }
  r.bench = b_bench->string;
  r.schema_version = static_cast<int>(b_schema->number);
  if (b_schema->number != c_schema->number) {
    r.verdict = Verdict::kSchemaMismatch;
    r.mismatch = "schema_version " + detail::scalar_repr(*b_schema) + " vs " +
                 detail::scalar_repr(*c_schema);
    return r;
  }
  if (b_bench->string != c_bench->string) {
    r.verdict = Verdict::kSchemaMismatch;
    r.mismatch = "bench \"" + b_bench->string + "\" vs \"" + c_bench->string +
                 "\" — refusing a cross-bench diff";
    return r;
  }

  std::map<std::string, JsonValue> base_flat, cand_flat;
  flatten(baseline, "", base_flat);
  flatten(candidate, "", cand_flat);

  for (const Rule& rule : rules) {
    if (rule.bench != r.bench) continue;
    for (const auto& [path, value] : base_flat) {
      if (!glob_match(rule.pattern, path)) continue;
      const auto it = cand_flat.find(path);
      Check c = detail::compare_one(
          path, rule, value, it == cand_flat.end() ? nullptr : &it->second);
      if (c.status != CheckStatus::kPass) ++r.regressions;
      r.checks.push_back(std::move(c));
    }
  }
  if (r.regressions > 0) r.verdict = Verdict::kFail;
  return r;
}

/// Machine-readable verdict document.
inline void write_verdict(std::ostream& os, const DiffResult& r,
                          std::string_view baseline_path,
                          std::string_view candidate_path) {
  os << "{\n"
     << "  \"verdict\": \"" << to_string(r.verdict) << "\",\n"
     << "  \"bench\": \"" << r.bench << "\",\n"
     << "  \"schema_version\": " << r.schema_version << ",\n"
     << "  \"baseline\": \"" << baseline_path << "\",\n"
     << "  \"candidate\": \"" << candidate_path << "\",\n"
     << "  \"regressions\": " << r.regressions << ",\n";
  if (!r.mismatch.empty()) {
    std::string escaped;
    for (const char c : r.mismatch) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    os << "  \"mismatch\": \"" << escaped << "\",\n";
  }
  os << "  \"checks\": [\n";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    os << "    {\"path\": \"" << c.path << "\", \"direction\": \""
       << to_string(c.dir) << "\", \"status\": \"" << to_string(c.status)
       << "\"";
    if (c.dir == Direction::kLowerBetter || c.dir == Direction::kHigherBetter) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    ", \"baseline\": %.9g, \"candidate\": %.9g", c.baseline,
                    c.candidate);
      os << buf;
    }
    if (!c.detail.empty()) {
      std::string escaped;
      for (const char ch : c.detail) {
        if (ch == '"' || ch == '\\') escaped += '\\';
        escaped += ch;
      }
      os << ", \"detail\": \"" << escaped << "\"";
    }
    os << "}" << (i + 1 < r.checks.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace hpcwhisk::benchdiff
