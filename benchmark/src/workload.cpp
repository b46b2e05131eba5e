#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "hpcwhisk/analysis/node_state_log.hpp"
#include "hpcwhisk/analysis/report.hpp"
#include "hpcwhisk/analysis/stats.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/trace/faas_workload.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"
#include "json.hpp"
#include "sampler.hpp"

namespace hwbench {

namespace analysis = hpcwhisk::analysis;
namespace core = hpcwhisk::core;
namespace sim = hpcwhisk::sim;
namespace slurm = hpcwhisk::slurm;
namespace trace = hpcwhisk::trace;
namespace whisk = hpcwhisk::whisk;
using sim::SimTime;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;

    // The paper's production day at full scale.
    Workload prod;
    prod.name = "prod_day";
    prod.nodes = 2239;
    prod.burn_in = SimTime::hours(4);
    prod.window = SimTime::hours(24);
    prod.qps = 10;
    prod.functions = 100;
    all.push_back(prod);

    // Hot functions on leased warm executors, past saturation.
    Workload hot;
    hot.name = "hot_lease";
    hot.nodes = 256;
    hot.burn_in = SimTime::minutes(15);
    hot.window = SimTime::hours(3);
    hot.qps = 300;
    hot.functions = 40;
    hot.hot_share = 0.8;
    hot.lease = true;
    all.push_back(hot);

    // Short and 30 s calls under least-expected-work routing.
    Workload mixed;
    mixed.name = "mixed_route";
    mixed.nodes = 1024;
    mixed.burn_in = SimTime::hours(1);
    mixed.window = SimTime::hours(20);
    mixed.qps = 20;
    mixed.functions = 40;
    mixed.long_share = 0.025;
    mixed.route = whisk::RouteMode::kLeastExpectedWork;
    mixed.deadline_classes = true;
    mixed.invoker_concurrency = 4;
    mixed.invoker_slots = 4;
    all.push_back(mixed);

    // Fractional pilots, reservations and QOS on the fidelity Slurm path.
    Workload tres;
    tres.name = "tres_day";
    tres.nodes = 256;
    tres.burn_in = SimTime::hours(1);
    tres.window = SimTime::minutes(90);
    tres.qps = 30;
    tres.functions = 40;
    tres.tres = true;
    tres.reservation_period = SimTime::minutes(40);
    tres.reservation_length = SimTime::minutes(15);
    all.push_back(tres);
    return all;
  }();
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Seed of every workload's HPC job stream: the stream
/// bench::run_experiment draws at HW_SEED=1.
constexpr std::uint64_t kTraceSeed = 1;

/// Per-node TRES capacity and pilot slice on the fidelity path.
constexpr slurm::TresVector kNodeTres{8, 32000, 0};
constexpr slurm::TresVector kPilotTres{2, 8000, 0};

/// Layers the sampler reports, in report order.
constexpr const char* kLayers[] = {"sim",   "slurm",    "core",  "whisk",
                                   "mq",    "runtime",  "sched", "lease",
                                   "trace", "analysis", "bench"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double pct(const std::vector<double>& v, double p) {
  return analysis::percentile(v, p);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Incremental FNV-1a, fed one integer at a time.
struct Fnv1a {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Phase spans kept in memory and written out after the rep.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_{origin} {}

  /// Opens a span under `parent` (-1 = root); returns its id.
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  [[nodiscard]] std::string jsonl() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << ns(s.start)
          << ", \"end_ns\": " << ns(s.end) << "}\n";
    }
    return out.str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  [[nodiscard]] long long ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

core::HpcWhiskSystem::Config system_config(const Workload& w,
                                           std::uint64_t seed,
                                           SimTime end_of_run) {
  core::HpcWhiskSystem::Config cfg;
  cfg.seed = seed;
  cfg.slurm.node_count = w.nodes;
  cfg.partitions = core::default_partitions();
  cfg.controller.route_mode = w.route;
  cfg.controller.sched.deadline_classes = w.deadline_classes;
  if (w.invoker_concurrency > 0)
    cfg.manager.invoker.max_concurrent = w.invoker_concurrency;
  if (w.invoker_slots > 0) cfg.controller.invoker_slots = w.invoker_slots;
  if (w.lease) {
    cfg.controller.lease.enabled = true;
    auto& keep_alive = cfg.manager.invoker.pool.keep_alive;
    keep_alive.policy = hpcwhisk::runtime::KeepAlivePolicy::kHybrid;
    keep_alive.floor = SimTime::seconds(60);
    keep_alive.reap_interval = SimTime::seconds(30);
  }
  cfg.manager.model = core::SupplyModel::kFib;

  if (w.tres) {
    cfg.slurm.fidelity.tres_mode = true;
    cfg.slurm.fidelity.node_capacity = kNodeTres;
    cfg.manager.pilot_tres = kPilotTres;
    // pilot-low dies before plain tier-0 pilots; pilot-high (the longest
    // fib length) sits at the HPC tier and is never evicted by it.
    cfg.slurm.fidelity.qos.push_back({"pilot-low", -1, 0, 1.0});
    cfg.slurm.fidelity.qos.push_back({"pilot-high", 1, 0, 1.0});
    cfg.manager.pilot_qos = "pilot-low";
    cfg.manager.pilot_qos_long = "pilot-high";
    const std::uint32_t width = std::max<std::uint32_t>(1, w.nodes / 16);
    for (SimTime at = w.reservation_period; at < end_of_run;
         at += w.reservation_period) {
      slurm::Reservation r;
      r.name = "maint-" + std::to_string(at.ticks());
      r.start = at;
      r.end = at + w.reservation_length;
      r.nodes.resize(width);
      for (std::uint32_t n = 0; n < width; ++n) r.nodes[n] = n;
      cfg.slurm.fidelity.reservations.push_back(std::move(r));
    }
  }
  return cfg;
}

void check(bool ok, const char* what, std::vector<std::string>& out) {
  if (!ok) out.emplace_back(what);
}

}  // namespace

RepResult run_rep(const Workload& w, std::uint64_t seed, double length_scale,
                  bool traced) {
  const SimTime burn_in = SimTime::seconds(w.burn_in.to_seconds() * length_scale);
  const SimTime window = SimTime::seconds(w.window.to_seconds() * length_scale);
  const SimTime end = burn_in + window;
  const SimTime slice = SimTime::minutes(10);

  // Room for a minute of samples; later ticks count as overflow.
  std::unique_ptr<Sampler> sampler;
  if (traced) sampler = std::make_unique<Sampler>(60'000);

  const Clock::time_point t_wiring = Clock::now();
  Spans spans{t_wiring};
  const int rep_span = spans.open(std::string{w.name}, -1);
  if (sampler) sampler->start(1000);
  const int wiring_span = spans.open("wiring", rep_span);

  // Declared first so it outlives the system whose Slurm reports to it.
  analysis::NodeStateLog node_log{w.nodes, SimTime::zero()};
  sim::Simulation simulation;
  const core::HpcWhiskSystem::Config config = system_config(w, seed, end);
  core::HpcWhiskSystem system{simulation, config};

  trace::HpcWorkloadGenerator::Config hpc_cfg;
  if (w.tres) {
    // Whole/half/quarter-node HPC jobs leave the partial nodes that
    // fractional pilots harvest.
    hpc_cfg.tres_buckets = {{kNodeTres, 0.5},
                            {{4, 16000, 0}, 0.3},
                            {{2, 8000, 0}, 0.2}};
  }
  trace::HpcWorkloadGenerator hpc{simulation, system.slurm(), hpc_cfg,
                                  sim::Rng{kTraceSeed ^ 0x9E3779B9ULL}};
  system.slurm().set_node_observer(
      [&node_log](const slurm::NodeTransition& t) { node_log.record(t); });
  hpc.start();
  system.start();

  const std::vector<std::string> names =
      trace::register_sleep_functions(system.functions(), w.functions);
  const auto n_long = static_cast<std::size_t>(
      w.long_share * static_cast<double>(names.size()));
  for (std::size_t i = 0; i < n_long; ++i) {
    system.functions().put(
        whisk::fixed_duration_function(names[i], SimTime::seconds(30)));
  }
  trace::FaasLoadGenerator::Config load_cfg;
  load_cfg.rate_qps = w.qps;
  load_cfg.functions = names;
  load_cfg.hot_share = w.hot_share;
  load_cfg.hot_count = w.hot_functions;
  // Traced reps time every Controller::submit inside the sink.
  std::vector<double> submit_ns;
  whisk::Controller& controller = system.controller();
  trace::FaasLoadGenerator::Sink sink;
  if (traced) {
    submit_ns.reserve(static_cast<std::size_t>(w.qps * window.to_seconds()) + 1);
    sink = [&controller, &submit_ns](const std::string& fn) {
      const Clock::time_point t0 = Clock::now();
      (void)controller.submit(fn);
      submit_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    };
  } else {
    sink = [&controller](const std::string& fn) { (void)controller.submit(fn); };
  }
  trace::FaasLoadGenerator load{simulation, load_cfg, std::move(sink),
                                sim::Rng{seed ^ 0xC0FFEEULL}};
  simulation.at(burn_in, [&load, end] { load.start(end); });
  spans.close(wiring_span);
  const Clock::time_point t_burn = Clock::now();

  const int burn_span = spans.open("burn_in", rep_span);
  simulation.run_until(burn_in);
  spans.close(burn_span);
  const Clock::time_point t_window = Clock::now();
  const std::uint64_t events_at_window = simulation.executed_events();

  // The window runs in 10-simulated-minute slices; the cut points fire no
  // events, so any slicing gives the same run.
  const int window_span = spans.open("window", rep_span);
  std::vector<double> slice_ms;
  std::size_t pending_peak = simulation.pending_events();
  for (SimTime at = burn_in; at < end;) {
    const SimTime next = std::min(end, at + slice);
    const int s = traced ? spans.open("slice", window_span) : -1;
    const Clock::time_point t0 = Clock::now();
    simulation.run_until(next);
    slice_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (s >= 0) spans.close(s);
    pending_peak = std::max(pending_peak, simulation.pending_events());
    at = next;
  }
  spans.close(window_span);
  const Clock::time_point t_analysis = Clock::now();
  const std::uint64_t window_events =
      simulation.executed_events() - events_at_window;

  // --- Analysis: reduce the run to metrics -------------------------------
  const int analysis_span = spans.open("analysis", rep_span);
  RepResult out;
  const auto put = [&out](std::string name, double value) {
    out.values.emplace_back(std::move(name), value);
  };

  node_log.finalize(end);
  std::vector<analysis::StateCounts> samples;
  for (const auto& s : node_log.sample_counts(SimTime::seconds(10))) {
    if (s.at >= burn_in) samples.push_back(s);
  }
  const analysis::SlurmLevelReport slurm_report =
      analysis::slurm_level_report(samples);
  double hpc_node_samples = 0;
  for (const analysis::StateCounts& s : samples) hpc_node_samples += s.hpc;

  std::uint64_t hpc_jobs = 0;
  system.slurm().for_each_job([&](const slurm::JobRecord& job) {
    if (job.state != slurm::JobState::kPending &&
        job.spec.partition != config.manager.partition &&
        job.start_time >= burn_in)
      ++hpc_jobs;
  });

  const whisk::Controller::Counters& cc = controller.counters();
  const auto& records = controller.activations();
  std::vector<double> response_ms, queue_wait_ms;
  response_ms.reserve(records.size());
  queue_wait_ms.reserve(records.size());
  std::uint64_t completed = 0, failed = 0, timed_out = 0, rejected = 0,
                in_flight = 0, cold = 0, within_1s = 0;
  Fnv1a digest;
  for (const whisk::ActivationRecord& r : records) {
    digest.add(r.id);
    digest.add(static_cast<std::uint64_t>(r.state));
    digest.add(static_cast<std::uint64_t>(r.submit_time.ticks()));
    digest.add(static_cast<std::uint64_t>(r.end_time.ticks()));
    digest.add(r.executed_by);
    digest.add(r.cold_start ? 1 : 0);
    if (r.first_start_time != SimTime::zero())
      queue_wait_ms.push_back(r.queue_wait().to_seconds() * 1e3);
    switch (r.state) {
      case whisk::ActivationState::kCompleted: {
        ++completed;
        const double ms = r.response_time().to_seconds() * 1e3;
        response_ms.push_back(ms);
        if (ms <= 1000.0) ++within_1s;
        if (r.cold_start) ++cold;
        break;
      }
      case whisk::ActivationState::kFailed: ++failed; break;
      case whisk::ActivationState::kTimedOut: ++timed_out; break;
      case whisk::ActivationState::kRejected503: ++rejected; break;
      case whisk::ActivationState::kQueued:
      case whisk::ActivationState::kRunning: ++in_flight; break;
    }
  }
  const slurm::Slurmctld::Counters& sc = system.slurm().counters();
  digest.add(simulation.executed_events());
  for (const std::uint64_t c : {sc.submitted, sc.started, sc.completed,
                                sc.timed_out, sc.preempted, sc.cancelled,
                                sc.sched_passes})
    digest.add(c);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest.h));
  out.digest = hex;

  const std::uint64_t issued = load.issued();
  const std::uint64_t accepted = cc.accepted;
  const double window_s = window.to_seconds();
  const double window_wall = seconds_between(t_window, t_analysis);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  // Correctness: the call ledger must balance.
  check(records.size() == issued && cc.submitted == issued,
        "every issued call has exactly one activation record", out.failures);
  check(issued == accepted + cc.rejected_503 && rejected == cc.rejected_503,
        "issued = accepted + rejected_503", out.failures);
  check(accepted == completed + failed + timed_out + in_flight &&
            completed == cc.completed && failed == cc.failed &&
            timed_out == cc.timed_out,
        "accepted = completed + failed + timed_out + in_flight", out.failures);
  check(completed > 0, "the window served calls", out.failures);

  // End-to-end metrics; the parent adds peak_rss_mb.
  put("setup_s", seconds_between(t_wiring, t_window));
  put("window_s", window_wall);
  put("sim_speed", window_s / window_wall);
  put("coverage", slurm_report.coverage);
  put("harvest_efficiency", system.manager().harvest().efficiency());
  put("hpc_node_share",
      ratio(hpc_node_samples, static_cast<double>(samples.size()) * w.nodes));
  put("call_p50_ms", pct(response_ms, 0.50));
  put("call_p99_ms", pct(response_ms, 0.99));
  put("call_ok_share", ratio(d(completed), d(issued)));
  put("call_invoked_share", ratio(d(accepted), d(issued)));
  put("goodput_qps", d(within_1s) / window_s);
  put("warm_start_share", ratio(d(completed - cold), d(completed)));

  // Per-layer metrics. Slurm and pilot counts cover the whole rep (burn-in
  // plus window); sim.* and the call counts cover the window.
  put("setup.wiring_ms", seconds_between(t_wiring, t_burn) * 1e3);
  put("sim.events", d(window_events));
  put("sim.ns_per_event", ratio(window_wall * 1e9, d(window_events)));
  put("sim.pending_peak", d(pending_peak));
  put("sim.slice_ms_p50", pct(slice_ms, 0.50));
  put("sim.slice_ms_max", *std::max_element(slice_ms.begin(), slice_ms.end()));

  put("slurm.sched_passes", d(sc.sched_passes));
  put("slurm.jobs_started", d(sc.started));
  put("slurm.preempted", d(sc.preempted));
  put("slurm.hpc_jobs", d(hpc_jobs));

  const core::JobManager& manager = system.manager();
  const core::JobManager::HarvestStats& harvest = manager.harvest();
  put("core.pilots_started", d(manager.counters().started));
  put("core.pilots_served", d(harvest.pilots_served));
  put("core.served_share",
      ratio(d(harvest.pilots_served),
            d(harvest.pilots_served + harvest.pilots_never_served)));
  put("core.warmup_overhead_s", harvest.warmup_overhead.to_seconds());
  put("core.preempt_wasted_s", harvest.preempt_wasted.to_seconds());

  put("whisk.completed", d(cc.completed));
  put("whisk.failed", d(cc.failed));
  put("whisk.timed_out", d(cc.timed_out));
  put("whisk.requeued", d(cc.requeued));
  put("whisk.interrupted", d(cc.interrupted));
  put("whisk.queue_wait_ms_p50", pct(queue_wait_ms, 0.50));
  put("whisk.queue_wait_ms_p99", pct(queue_wait_ms, 0.99));

  hpcwhisk::mq::Topic::Counters mq{};
  const std::vector<std::string> topics = system.broker().topic_names();
  for (const std::string& name : topics) {
    const hpcwhisk::mq::Topic::Counters c = system.broker().find(name)->counters();
    mq.published += c.published;
    mq.front_published += c.front_published;
    mq.consumed += c.consumed;
    mq.drained += c.drained;
  }
  put("mq.published", d(mq.published));
  put("mq.front_published", d(mq.front_published));
  put("mq.consumed", d(mq.consumed));
  put("mq.drained", d(mq.drained));
  put("mq.topics", d(topics.size()));

  put("runtime.cold_starts", d(cold));

  const hpcwhisk::sched::CallScheduler* sched = controller.scheduler();
  const hpcwhisk::sched::CallScheduler::Stats ss =
      sched != nullptr ? sched->stats() : hpcwhisk::sched::CallScheduler::Stats{};
  put("sched.decisions", d(ss.decisions));
  put("sched.cold_routed", d(ss.cold_routed));
  put("sched.short_class", d(ss.short_class));
  put("sched.mean_abs_error_ms",
      ratio(static_cast<double>(ss.sum_abs_error_ticks) / 1e3,
            d(ss.error_observations)));

  const hpcwhisk::lease::LeaseManager* leases = controller.lease_manager();
  const hpcwhisk::lease::LeaseManager::Stats ls =
      leases != nullptr ? leases->stats() : hpcwhisk::lease::LeaseManager::Stats{};
  put("lease.hits", d(cc.lease_hits));
  put("lease.granted", d(ls.granted));
  put("lease.revoked", d(ls.revoked));
  put("lease.fallbacks", d(cc.lease_fallback));
  put("lease.hit_rate", ratio(d(cc.lease_hits), d(accepted)));

  put("trace.calls_issued", d(issued));
  spans.close(analysis_span);
  const Clock::time_point t_done = Clock::now();
  put("analysis.ms", seconds_between(t_analysis, t_done) * 1e3);
  spans.close(rep_span);

  if (sampler) {
    sampler->stop();
    put("whisk.submit_ns_p50", pct(submit_ns, 0.50));
    put("whisk.submit_ns_p99", pct(submit_ns, 0.99));
    const std::map<std::string, std::size_t> counts = sampler->attribute();
    const double total = static_cast<double>(sampler->samples());
    const auto count_of = [&counts](const std::string& layer) {
      const auto it = counts.find(layer);
      return it == counts.end() ? 0.0 : static_cast<double>(it->second);
    };
    double named = 0;
    for (const char* layer : kLayers) {
      named += count_of(layer);
      put(std::string{layer} + ".self_share", ratio(count_of(layer), total));
    }
    put("other.self_share", ratio(total - named, total));
    put("sampler.samples", total);
    // Slurm's sampled wall time per scheduling pass.
    put("slurm.us_per_pass",
        ratio(ratio(count_of("slurm"), total) * seconds_between(t_wiring, t_done) * 1e6,
              d(sc.sched_passes)));
    check(sampler->overflowed() == 0, "the sample buffer held every tick",
          out.failures);
    out.spans_jsonl = spans.jsonl();
  }
  return out;
}

}  // namespace hwbench
