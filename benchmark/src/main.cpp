// hwbench: the repository benchmark runner.
//
//   hwbench run [--workload W] [--seed N] [--reps R] [--seconds S]
//               [--trace 0|1] [--smoke] [--spec BENCHMARK.json]
//   hwbench compare A.json B.json [--spec BENCHMARK.json]
//
// `run` executes reps one at a time, each in a fresh child process, with
// the workloads interleaved: at least R rounds (default 3), more while
// another round fits in S seconds, then one traced rep per workload. It
// prints every metric the spec names, with its unit, writes results.json
// next to the binary, and exits 1 when a correctness check fails.
//   --trace 0  untraced reps only; the last output line is a JSON summary
//              of the end-to-end metrics
//   --trace 1  untraced reps for half of S, traced reps for the rest; the
//              summary carries the per-layer metrics
//   --smoke    every workload at 1/8 of its simulated length
//
// `compare` applies each end-to-end metric's direction and bound from the
// spec to two results files and exits 1 on a regression.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "json.hpp"
#include "workload.hpp"

extern char** environ;

namespace hwbench {
namespace {

using Clock = std::chrono::steady_clock;

/// A traced rep of full length must collect this many samples (1 kHz);
/// the smoke test's shorter reps need proportionally fewer.
constexpr double kMinSamples = 1000;
/// ... and at least 95 % of them must fall in named layers.
constexpr double kMaxOtherShare = 0.05;
constexpr double kSmokeScale = 0.125;

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better{false};
  double bound{0};
};

struct Spec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

Spec load_spec(const std::string& path) {
  const Json doc = read_json_file(path);
  const auto read_list = [&doc, &path](const char* key) {
    std::vector<MetricSpec> out;
    const Json* list = doc.find(key);
    if (list == nullptr || list->kind != Json::Kind::kArray)
      throw std::runtime_error(path + ": missing list " + key);
    for (const Json& m : list->array) {
      const Json* name = m.find("name");
      const Json* unit = m.find("unit");
      const Json* better = m.find("better");
      if (name == nullptr || unit == nullptr || better == nullptr)
        throw std::runtime_error(path + ": incomplete metric in " + key);
      MetricSpec s;
      s.name = name->string;
      s.unit = unit->string;
      s.higher_is_better = better->string == "higher";
      if (const Json* bound = m.find("bound")) s.bound = bound->number;
      out.push_back(std::move(s));
    }
    return out;
  };
  return {read_list("end_to_end"), read_list("per_layer")};
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  const std::string path{buf, static_cast<std::size_t>(n)};
  return path.substr(0, path.rfind('/'));
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- Child side ----------------------------------------------------------

int child_main(const Workload& w, std::uint64_t seed, double scale,
               bool traced) {
  const RepResult r = run_rep(w, seed, scale, traced);
  if (traced) {
    std::ofstream{exe_dir() + "/trace_" + std::string{w.name} + ".jsonl"}
        << r.spans_jsonl;
  }
  std::ostringstream out;
  out << "{\"digest\": " << json_string(r.digest) << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? ", " : "") << json_string(r.failures[i]);
  out << "], \"values\": {";
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    out << (i ? ", " : "") << json_string(r.values[i].first) << ": "
        << json_number(r.values[i].second);
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
  return 0;
}

// --- Parent side ---------------------------------------------------------

struct Rep {
  bool traced{false};
  double wall_s{0};
  std::string digest;
  std::vector<std::string> failures;
  std::map<std::string, double> values;
};

/// Runs one rep in a fresh child process and waits for it to end.
Rep spawn_rep(const Workload& w, std::uint64_t seed, double scale,
              bool traced) {
  Rep rep;
  rep.traced = traced;
  std::vector<std::string> args = {"hwbench",    "child",
                                   "--workload", std::string{w.name},
                                   "--seed",     std::to_string(seed),
                                   "--scale",    json_number(scale),
                                   "--trace",    traced ? "1" : "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const Clock::time_point start = Clock::now();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (rc == 0) {
    char buf[65536];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) != 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      output.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) {
    rep.failures.push_back("cannot spawn a child process");
    return rep;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  rep.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep.failures.push_back("child process failed");
    return rep;
  }
  try {
    const Json doc = parse_json(output);
    const Json* digest = doc.find("digest");
    const Json* failures = doc.find("failures");
    const Json* values = doc.find("values");
    if (digest == nullptr || failures == nullptr || values == nullptr)
      throw std::runtime_error("missing member");
    rep.digest = digest->string;
    for (const Json& f : failures->array) rep.failures.push_back(f.string);
    for (const auto& [k, v] : values->object)
      if (v.is_number()) rep.values[k] = v.number;
  } catch (const std::exception& e) {
    rep.failures.push_back(std::string{"unreadable child output: "} + e.what());
    return rep;
  }
  rep.values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return rep;
}

/// One metric over a workload's reps. `value` is what the metric reports:
/// the fastest rep for wall-clock metrics, the median otherwise.
struct Stat {
  double value{0}, median{0}, min{0}, max{0};
  std::size_t n{0};
};

/// Wall-clock end-to-end metrics. Host noise here only ever slows a rep
/// down, so the fastest rep is the steadiest estimate.
bool is_wall_clock(const std::string& metric) {
  return metric == "sim_speed" || metric == "setup_s";
}

struct WorkloadRun {
  const Workload* workload{nullptr};
  std::vector<Rep> reps;
  std::vector<std::string> failures;
  std::map<std::string, Stat> end_to_end;  ///< over untraced reps
  std::map<std::string, Stat> per_layer;   ///< over traced reps
};

std::optional<Stat> stat_of(const std::vector<Rep>& reps, bool traced,
                            const MetricSpec& m) {
  std::vector<double> xs;
  for (const Rep& r : reps) {
    const auto it = r.values.find(m.name);
    if (r.traced == traced && it != r.values.end()) xs.push_back(it->second);
  }
  if (xs.empty()) return std::nullopt;
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  Stat s{0, median(xs), *lo, *hi, xs.size()};
  s.value = !is_wall_clock(m.name) ? s.median
            : m.higher_is_better   ? s.max
                                   : s.min;
  return s;
}

/// Checks the reps of one workload and reduces each metric over them.
void reduce(WorkloadRun& run, const Spec& spec, double scale) {
  std::string digest;
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    const Rep& r = run.reps[i];
    const std::string tag =
        (r.traced ? "traced rep " : "rep ") + std::to_string(i);
    for (const std::string& f : r.failures) run.failures.push_back(tag + ": " + f);
    if (r.digest.empty()) continue;
    if (digest.empty()) digest = r.digest;
    if (r.digest != digest)
      run.failures.push_back(tag + ": digest " + r.digest + " differs from " +
                             digest);
    if (!r.traced) continue;
    const auto value = [&r](const char* name, double fallback) {
      const auto it = r.values.find(name);
      return it == r.values.end() ? fallback : it->second;
    };
    const double samples = value("sampler.samples", 0.0);
    const double other = value("other.self_share", 1.0);
    if (samples < kMinSamples * scale)
      run.failures.push_back(tag + ": only " + fmt_value(samples) + " samples");
    if (other > kMaxOtherShare)
      run.failures.push_back(tag + ": " + fmt_value(other * 100) +
                             " % of samples in no named layer");
  }
  for (const MetricSpec& m : spec.end_to_end) {
    if (const auto s = stat_of(run.reps, false, m)) run.end_to_end[m.name] = *s;
  }
  for (const MetricSpec& m : spec.per_layer) {
    if (const auto s = stat_of(run.reps, true, m)) run.per_layer[m.name] = *s;
  }
  // The fastest traced window against the fastest untraced one: same
  // seed, same simulated work.
  const MetricSpec window{"window_s", "s", false, 0};
  const auto traced = stat_of(run.reps, true, window);
  const auto plain = stat_of(run.reps, false, window);
  if (traced && plain && plain->min > 0) {
    const double overhead = traced->min / plain->min - 1.0;
    run.per_layer["tracing_overhead"] = {overhead, overhead, overhead, overhead,
                                         traced->n};
  }
}

struct RunOptions {
  std::vector<const Workload*> workloads;
  std::uint64_t seed{1};
  int reps{3};
  double seconds{0};
  std::optional<int> trace;  ///< unset: both phases, no summary line
  bool smoke{false};
  std::string spec_path{"BENCHMARK.json"};

  [[nodiscard]] double scale() const { return smoke ? kSmokeScale : 1.0; }
};

/// Rounds of one rep per workload: at least `min_rounds`, then more while
/// another round is expected to end before `deadline_s` (since `start`).
void run_rounds(std::vector<WorkloadRun>& runs, const RunOptions& opt,
                bool traced, int min_rounds, double deadline_s,
                Clock::time_point start) {
  std::vector<double> round_s;
  for (int round = 0;; ++round) {
    const double now = std::chrono::duration<double>(Clock::now() - start).count();
    if (round >= min_rounds && now + median(round_s) > deadline_s) break;
    double wall = 0;
    for (WorkloadRun& run : runs) {
      run.reps.push_back(spawn_rep(*run.workload, opt.seed, opt.scale(), traced));
      wall += run.reps.back().wall_s;
    }
    round_s.push_back(wall);
  }
}

void print_report(const std::vector<WorkloadRun>& runs, const Spec& spec,
                  const RunOptions& opt, bool correct) {
  std::ostringstream table;
  const auto print = [&table](const std::vector<MetricSpec>& list,
                              const std::map<std::string, Stat>& stats) {
    for (const MetricSpec& m : list) {
      const auto it = stats.find(m.name);
      table << "  " << m.name
            << std::string(28 - std::min<std::size_t>(27, m.name.size()), ' ');
      if (it == stats.end()) {
        table << "-\n";
        continue;
      }
      const Stat& s = it->second;
      table << fmt_value(s.value) << " " << m.unit;
      if (s.min != s.max)
        table << "  (" << s.n << " reps: " << fmt_value(s.min) << " .. "
              << fmt_value(s.max) << ", median " << fmt_value(s.median) << ")";
      table << "\n";
    }
  };
  for (const WorkloadRun& run : runs) {
    table << "== " << run.workload->name << " (seed " << opt.seed << ", "
          << run.reps.size() << " reps)\n";
    if (opt.trace != 1) print(spec.end_to_end, run.end_to_end);
    if (opt.trace != 0) print(spec.per_layer, run.per_layer);
    for (const std::string& f : run.failures)
      table << "  CHECK FAILED " << f << "\n";
  }
  table << "checks: " << (correct ? "all passed" : "FAILED") << "\n";
  std::cout << table.str();
}

std::string stat_json(const Stat& s, const std::string& unit) {
  return "{\"value\": " + json_number(s.value) + ", \"unit\": " +
         json_string(unit) + ", \"median\": " + json_number(s.median) +
         ", \"min\": " + json_number(s.min) +
         ", \"max\": " + json_number(s.max) + ", \"reps\": " +
         std::to_string(s.n) + "}";
}

/// results.json: per workload, every metric's value, median and range.
void write_results(const std::vector<WorkloadRun>& runs, const Spec& spec,
                   const RunOptions& opt, bool correct) {
  const auto metrics = [](std::ostringstream& out,
                          const std::vector<MetricSpec>& list,
                          const std::map<std::string, Stat>& stats) {
    std::size_t k = 0;
    for (const MetricSpec& m : list) {
      const auto it = stats.find(m.name);
      if (it == stats.end()) continue;
      out << (k++ ? ", " : "") << json_string(m.name) << ": "
          << stat_json(it->second, m.unit);
    }
  };
  std::ostringstream out;
  out << "{\"seed\": " << opt.seed << ", \"smoke\": "
      << (opt.smoke ? "true" : "false") << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"workloads\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    out << (i ? ", " : "") << json_string(run.workload->name)
        << ": {\"end_to_end\": {";
    metrics(out, spec.end_to_end, run.end_to_end);
    out << "}, \"per_layer\": {";
    metrics(out, spec.per_layer, run.per_layer);
    out << "}, \"failures\": [";
    for (std::size_t f = 0; f < run.failures.size(); ++f)
      out << (f ? ", " : "") << json_string(run.failures[f]);
    out << "]}";
  }
  out << "}}\n";
  std::ofstream{exe_dir() + "/results.json"} << out.str();
}

int run_main(const RunOptions& opt) {
  const Spec spec = load_spec(opt.spec_path);
  std::vector<WorkloadRun> runs;
  for (const Workload* w : opt.workloads) runs.push_back({w, {}, {}, {}, {}});

  const Clock::time_point start = Clock::now();
  if (opt.trace == 1) {
    run_rounds(runs, opt, false, 1, opt.seconds / 2, start);
    run_rounds(runs, opt, true, 1, opt.seconds, start);
  } else {
    run_rounds(runs, opt, false, opt.reps, opt.seconds, start);
    if (!opt.trace) run_rounds(runs, opt, true, 1, 0, start);
  }

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  for (WorkloadRun& run : runs) {
    reduce(run, spec, opt.scale());
    attempted += run.reps.size();
    for (const Rep& r : run.reps) failed += r.failures.empty() ? 0 : 1;
    correct = correct && run.failures.empty();
  }
  print_report(runs, spec, opt, correct);
  write_results(runs, spec, opt, correct);

  if (opt.trace) {
    // The summary line: last on stdout.
    const bool e2e = *opt.trace == 0;
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    std::size_t k = 0;
    for (const WorkloadRun& run : runs) {
      const auto& stats = e2e ? run.end_to_end : run.per_layer;
      for (const MetricSpec& m : e2e ? spec.end_to_end : spec.per_layer) {
        const auto it = stats.find(m.name);
        const std::string name =
            runs.size() == 1 ? m.name
                             : std::string{run.workload->name} + "." + m.name;
        line << (k++ ? ", " : "") << json_string(name) << ": {\"value\": "
             << (it == stats.end() ? "null" : json_number(it->second.value))
             << ", \"unit\": " << json_string(m.unit) << "}";
      }
    }
    line << "}}\n";
    std::cout << line.str();
  }
  return correct ? 0 : 1;
}

// --- compare ---------------------------------------------------------------

std::optional<double> e2e_value(const Json* run, const std::string& metric) {
  const Json* e2e = run != nullptr ? run->find("end_to_end") : nullptr;
  const Json* m = e2e != nullptr ? e2e->find(metric) : nullptr;
  const Json* v = m != nullptr ? m->find("value") : nullptr;
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number;
}

int compare_main(const std::string& a_path, const std::string& b_path,
                 const std::string& spec_path) {
  const Spec spec = load_spec(spec_path);
  const Json a = read_json_file(a_path);
  const Json b = read_json_file(b_path);
  const Json* a_runs = a.find("workloads");
  const Json* b_runs = b.find("workloads");
  for (const Json* runs : {a_runs, b_runs}) {
    if (runs == nullptr || runs->kind != Json::Kind::kObject)
      throw std::runtime_error("results files need a \"workloads\" object");
  }
  std::size_t regressions = 0;
  for (const auto& [workload, a_run] : a_runs->object) {
    const Json* b_run = b_runs->find(workload);
    for (const MetricSpec& m : spec.end_to_end) {
      const std::optional<double> before = e2e_value(&a_run, m.name);
      if (!before) continue;
      const std::optional<double> after = e2e_value(b_run, m.name);
      bool regressed = !after;
      std::cout << workload << " " << m.name << ": ";
      if (after) {
        const double worse =
            m.higher_is_better ? *before - *after : *after - *before;
        regressed = worse > m.bound * std::abs(*before);
        std::cout << fmt_value(*before) << " -> " << fmt_value(*after) << " "
                  << m.unit << " (bound " << fmt_value(m.bound * 100) << " %)\n";
      } else {
        std::cout << "missing from " << b_path << "\n";
      }
      if (regressed) {
        std::cout << "REGRESSION " << workload << " " << m.name << "\n";
        ++regressions;
      }
    }
  }
  std::cout << regressions << " regression(s)\n";
  return regressions == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: hwbench run [--workload W] [--seed N] [--reps R] "
               "[--seconds S] [--trace 0|1] [--smoke] [--spec FILE]\n"
               "       hwbench compare A.json B.json [--spec FILE]\n";
  std::exit(2);
}

int main_impl(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  const auto take = [&args](std::size_t& i) -> const std::string& {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  // Non-negative numbers only; anything else is a usage error.
  const auto number = [](const std::string& s) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v) || v < 0) usage();
    return v;
  };
  const auto integer = [](const std::string& s, std::uint64_t max) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || *end != '\0' || errno != 0 || v > max)
      usage();
    return static_cast<std::uint64_t>(v);
  };

  if (cmd == "compare") {
    std::vector<std::string> files;
    std::string spec = "BENCHMARK.json";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--spec") spec = take(i);
      else files.push_back(args[i]);
    }
    if (files.size() != 2) usage();
    return compare_main(files[0], files[1], spec);
  }
  if (cmd != "run" && cmd != "child") usage();

  RunOptions opt;
  std::string workload;
  double scale = 1.0;  // child only
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--workload") workload = take(i);
    else if (a == "--seed") opt.seed = integer(take(i), UINT64_MAX);
    else if (a == "--reps") opt.reps = static_cast<int>(integer(take(i), 1000));
    else if (a == "--seconds") opt.seconds = number(take(i));
    else if (a == "--trace") opt.trace = static_cast<int>(integer(take(i), 1));
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--spec") opt.spec_path = take(i);
    else if (a == "--scale" && cmd == "child") scale = number(take(i));
    else usage();
  }
  if (opt.reps < 1) usage();
  if (!workload.empty()) {
    const Workload* w = find_workload(workload);
    if (w == nullptr) {
      std::cerr << "hwbench: unknown workload " << workload << "\n";
      return 2;
    }
    opt.workloads.push_back(w);
  } else {
    for (const Workload& w : workloads()) opt.workloads.push_back(&w);
  }

  if (cmd == "child") {
    if (workload.empty() || scale <= 0) usage();
    return child_main(*opt.workloads.front(), opt.seed, scale, opt.trace == 1);
  }
  return run_main(opt);
}

}  // namespace
}  // namespace hwbench

int main(int argc, char** argv) {
  try {
    return hwbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hwbench: " << e.what() << "\n";
    return 2;
  }
}
