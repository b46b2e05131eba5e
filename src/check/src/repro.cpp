#include "hpcwhisk/check/repro.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <concepts>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "hpcwhisk/obs/json.hpp"

namespace hpcwhisk::check {
namespace {

using obs::JsonValue;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("repro JSON: " + what);
}

// Enum <-> name tables for the fields the component headers do not name.
constexpr std::pair<slurm::PilotPlacement, std::string_view> kPlacements[] = {
    {slurm::PilotPlacement::kPreemptAware, "preempt-aware"},
    {slurm::PilotPlacement::kHoleFitting, "hole-fitting"},
};
constexpr std::pair<core::SupplyModel, std::string_view> kSupplies[] = {
    {core::SupplyModel::kFib, "fib"},
    {core::SupplyModel::kVar, "var"},
};

// --- Writer ----------------------------------------------------------------

/// Appends `"key": value` pairs, `sep` between them.
struct Writer {
  std::string& out;
  std::string_view sep;
  bool first{true};

  void key(std::string_view k) {
    if (!first) out += sep;
    first = false;
    out += '"';
    out += k;
    out += "\": ";
  }
  void quoted(std::string_view s) {
    out += '"';
    for (const char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += ch;
      }
    }
    out += '"';
  }
  template <class T>
  void number(const char* fmt, T v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, fmt, v);
    out += buf;
  }

  template <std::unsigned_integral T>
  void operator()(std::string_view k, T v) {
    key(k);
    number("%" PRIu64, static_cast<std::uint64_t>(v));
  }
  void operator()(std::string_view k, double v) {
    key(k);
    number("%.17g", v);  // round-trip precision
  }
  void operator()(std::string_view k, bool v) {
    key(k);
    out += v ? "true" : "false";
  }
  void operator()(std::string_view k, std::string_view v) {
    key(k);
    quoted(v);
  }
  void operator()(std::string_view k, sim::SimTime v) {
    key(k);
    number("%" PRId64, v.ticks());
  }
  void operator()(std::string_view k,
                  const std::optional<core::SupplyModel>& v) {
    (*this)(k, std::string_view{v ? core::to_string(*v) : "none"});
  }
  void operator()(std::string_view k, slurm::PilotPlacement v) {
    for (const auto& [p, name] : kPlacements) {
      if (p == v) (*this)(k, name);
    }
  }
  void operator()(std::string_view k, whisk::RouteMode v) {
    (*this)(k, std::string_view{whisk::to_string(v)});
  }
  void operator()(std::string_view k, runtime::KeepAlivePolicy v) {
    (*this)(k, std::string_view{runtime::to_string(v)});
  }
  void operator()(std::string_view k, fault::FaultKind v) {
    (*this)(k, std::string_view{fault::to_string(v)});
  }
  void operator()(std::string_view k, BugPlant v) {
    (*this)(k, std::string_view{to_string(v)});
  }
};

// --- Reader ----------------------------------------------------------------

const JsonValue& require(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail("missing field '" + std::string{key} + "'");
  return *v;
}

const std::string& as_string(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kString) fail("expected a string");
  return v.string;
}

/// Plain non-negative integer literals only: a sign, fraction or
/// exponent is rejected, never rounded or wrapped.
std::uint64_t as_uint(const JsonValue& v, std::uint64_t max) {
  if (v.kind != JsonValue::Kind::kNumber) fail("expected a number");
  const std::string& lit = v.string;
  std::uint64_t out = 0;
  const auto [end, ec] =
      std::from_chars(lit.data(), lit.data() + lit.size(), out);
  if (ec != std::errc{} || end != lit.data() + lit.size() || out > max) {
    fail("'" + lit + "' is not an integer in [0, " + std::to_string(max) +
         "]");
  }
  return out;
}

sim::SimTime as_time(const JsonValue& v) {
  return sim::SimTime::micros(static_cast<std::int64_t>(
      as_uint(v, std::numeric_limits<std::int64_t>::max())));
}

/// The whole literal must be one number: "4-1" or "0.3.5" is rejected,
/// never read as its leading prefix.
double as_double(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) fail("expected a number");
  const std::string& lit = v.string;
  double out = 0;
  const auto [end, ec] =
      std::from_chars(lit.data(), lit.data() + lit.size(), out);
  if (ec != std::errc{} || end != lit.data() + lit.size()) {
    fail("'" + lit + "' is not a number");
  }
  return out;
}

template <class Enum, std::size_t N>
Enum from_table(const std::pair<Enum, std::string_view> (&table)[N],
                const std::string& name, const char* what) {
  for (const auto& [e, n] : table) {
    if (n == name) return e;
  }
  fail(std::string{"unknown "} + what + " '" + name + "'");
}

// Fields a v1 file must carry; every other spec field postdates the
// first v1 writer and keeps its default when absent. A v2 file must
// carry every field.
constexpr std::string_view kV1Required[] = {
    "seed",           "nodes",           "clusters",
    "supply",         "length_set",      "fib_per_length",
    "horizon_us",     "settle_us",       "faas_qps",
    "faas_functions", "faas_duration_us", "faas_poisson",
    "hpc_backlog",    "lull_probability", "grace_us",
    "plant",
};

struct Reader {
  const JsonValue& obj;
  bool v1;

  /// Null only for a v1 file's optional fields.
  const JsonValue* find(std::string_view k) const {
    const JsonValue* v = obj.find(k);
    const bool required =
        !v1 || std::find(std::begin(kV1Required), std::end(kV1Required), k) !=
                   std::end(kV1Required);
    if (v == nullptr && required) fail("missing field '" + std::string{k} + "'");
    return v;
  }

  template <std::unsigned_integral T>
  void operator()(std::string_view k, T& v) const {
    if (const JsonValue* j = find(k))
      v = static_cast<T>(as_uint(*j, std::numeric_limits<T>::max()));
  }
  void operator()(std::string_view k, double& v) const {
    if (const JsonValue* j = find(k)) v = as_double(*j);
  }
  void operator()(std::string_view k, bool& v) const {
    const JsonValue* j = find(k);
    if (j == nullptr) return;
    if (j->kind != JsonValue::Kind::kBool) fail("expected a boolean");
    v = j->boolean;
  }
  void operator()(std::string_view k, std::string& v) const {
    if (const JsonValue* j = find(k)) v = as_string(*j);
  }
  void operator()(std::string_view k, sim::SimTime& v) const {
    if (const JsonValue* j = find(k)) v = as_time(*j);
  }
  void operator()(std::string_view k,
                  std::optional<core::SupplyModel>& v) const {
    const JsonValue* j = find(k);
    if (j == nullptr) return;
    const std::string& name = as_string(*j);
    v = name == "none" ? std::nullopt
                       : std::optional{from_table(kSupplies, name,
                                                  "supply model")};
  }
  void operator()(std::string_view k, slurm::PilotPlacement& v) const {
    if (const JsonValue* j = find(k))
      v = from_table(kPlacements, as_string(*j), "pilot placement");
  }
  void operator()(std::string_view k, whisk::RouteMode& v) const {
    const JsonValue* j = find(k);
    if (j == nullptr) return;
    const auto mode = whisk::route_mode_from_string(as_string(*j));
    if (!mode) fail("unknown route mode '" + as_string(*j) + "'");
    v = *mode;
  }
  void operator()(std::string_view k, runtime::KeepAlivePolicy& v) const {
    const JsonValue* j = find(k);
    if (j == nullptr) return;
    const auto policy = runtime::keep_alive_policy_from_string(as_string(*j));
    if (!policy) fail("unknown keep-alive policy '" + as_string(*j) + "'");
    v = *policy;
  }
  void operator()(std::string_view k, fault::FaultKind& v) const {
    if (const JsonValue* j = find(k))
      v = fault::fault_kind_from_string(as_string(*j));
  }
  void operator()(std::string_view k, BugPlant& v) const {
    if (const JsonValue* j = find(k)) v = bug_plant_from_string(as_string(*j));
  }
};

/// The one field list both directions walk, so the writer and the
/// reader cannot drift apart. The reservation geometry and the seed
/// streams are v2 fields; parse_repro derives them for v1 files.
template <class Spec, class Visit>
void visit_spec(Spec& s, Visit&& v) {
  v("seed", s.seed);
  v("hpc_seed", s.hpc_seed);
  v("faas_seed", s.faas_seed);
  v("gateway_seed", s.gateway_seed);
  v("nodes", s.nodes);
  v("clusters", s.clusters);
  v("supply", s.supply);
  v("length_set", s.length_set);
  v("fib_per_length", s.fib_per_length);
  v("replenish_interval_us", s.replenish_interval);
  v("placement", s.placement);
  v("measure_start_us", s.measure_start);
  v("horizon_us", s.horizon);
  v("settle_us", s.settle);
  v("faas_qps", s.faas_qps);
  v("faas_functions", s.faas_functions);
  v("faas_duration_us", s.faas_duration);
  v("faas_poisson", s.faas_poisson);
  v("faas_hot_share", s.faas_hot_share);
  v("faas_hot_functions", s.faas_hot_functions);
  v("faas_long_share", s.faas_long_share);
  v("faas_long_duration_us", s.faas_long_duration);
  v("hpc_backlog", s.hpc_backlog);
  v("lull_probability", s.lull_probability);
  v("grace_us", s.grace);
  v("route_mode", s.route_mode);
  v("deadline_classes", s.deadline_classes);
  v("lease_mode", s.lease_mode);
  v("invoker_concurrency", s.invoker_concurrency);
  v("invoker_slots", s.invoker_slots);
  v("keep_alive", s.keep_alive);
  v("keep_alive_floor_us", s.keep_alive_floor);
  v("keep_alive_reap_us", s.keep_alive_reap);
  v("tres_mode", s.tres_mode);
  v("node_cpus", s.node_cpus);
  v("node_mem_mb", s.node_mem_mb);
  v("pilot_cpus", s.pilot_cpus);
  v("pilot_mem_mb", s.pilot_mem_mb);
  v("qos_preempt", s.qos_preempt);
  v("reservation", s.reservation);
  v("res_start_us", s.res_start);
  v("res_period_us", s.res_period);
  v("res_length_us", s.res_length);
  v("res_nodes", s.res_nodes);
  v("plant", s.plant);
}

template <class Fault, class Visit>
void visit_fault(Fault& f, Visit&& v) {
  v("cluster", f.cluster);
  v("kind", f.event.kind);
  v("at_us", f.event.at);
  v("grace_us", f.event.grace);
  v("outage_us", f.event.outage);
  v("stall_us", f.event.stall);
  v("window_us", f.event.window);
  v("probability", f.event.probability);
  v("delay_us", f.event.delay);
  v("copies", f.event.copies);
  v("target", f.event.target);
}

}  // namespace

std::string write_repro(const Repro& repro) {
  std::string out;
  out.reserve(2048);
  out += "{\n  ";
  Writer top{out, ",\n  "};
  top("format", kReproFormat);
  top("invariant", std::string_view{repro.invariant});
  top("message", std::string_view{repro.message});
  top.key("decision_hash");
  top.number("\"0x%016" PRIx64 "\"", repro.decision_hash);
  top.key("spec");
  out += "{\n    ";
  Writer spec{out, ",\n    "};
  visit_spec(repro.spec, spec);
  spec.key("faults");
  out += '[';
  for (std::size_t i = 0; i < repro.spec.faults.size(); ++i) {
    out += i == 0 ? "\n      {" : ",\n      {";
    visit_fault(repro.spec.faults[i], Writer{out, ", "});
    out += '}';
  }
  out += repro.spec.faults.empty() ? "]" : "\n    ]";
  out += "\n  }\n}\n";
  return out;
}

Repro parse_repro(std::string_view json) {
  JsonValue doc;
  obs::JsonParser parser{json};
  if (!parser.parse(doc)) fail(parser.error());
  if (doc.kind != JsonValue::Kind::kObject) {
    fail("top level must be an object");
  }
  const std::string& format = as_string(require(doc, "format"));
  if (format != kReproFormat && format != kReproFormatV1) {
    fail("unknown format '" + format + "'");
  }
  const bool v1 = format == kReproFormatV1;
  Repro repro;
  repro.invariant = as_string(require(doc, "invariant"));
  repro.message = as_string(require(doc, "message"));
  const std::string& hash = as_string(require(doc, "decision_hash"));
  const char* const last = hash.data() + hash.size();
  if (hash.size() < 3 || hash.size() > 18 || hash.compare(0, 2, "0x") != 0 ||
      std::from_chars(hash.data() + 2, last, repro.decision_hash, 16).ptr !=
          last) {
    fail("decision_hash '" + hash + "' is not 0x-prefixed 64-bit hex");
  }

  const JsonValue& spec = require(doc, "spec");
  ScenarioSpec& s = repro.spec;
  visit_spec(s, Reader{spec, v1});
  if (v1) {
    // v1 had no seed streams (SimCheck's derivation was implied) and
    // stored the single reservation window relative to the horizon.
    check_streams(s);
    const Reader v1_reader{spec, true};
    double res_start_frac = 0.3;
    std::uint32_t res_duration_min = 6;
    v1_reader("res_start_frac", res_start_frac);
    v1_reader("res_duration_min", res_duration_min);
    s.res_start =
        sim::SimTime::seconds(s.horizon.to_seconds() * res_start_frac);
    s.res_length = sim::SimTime::minutes(res_duration_min);
  }
  const JsonValue& faults = require(spec, "faults");
  if (faults.kind != JsonValue::Kind::kArray) fail("'faults' must be an array");
  s.faults.resize(faults.items.size());
  for (std::size_t i = 0; i < faults.items.size(); ++i) {
    visit_fault(s.faults[i], Reader{faults.items[i], false});
  }
  return repro;
}

}  // namespace hpcwhisk::check
