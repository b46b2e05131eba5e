// Extension experiment (paper future work, Sec. VII: "benchmark our
// system using a representative scientific FaaS workload"). Instead of
// 10-ms sleeps, the load mixes realistic function classes:
//   short  — sub-second event handlers (Azure-like mix),
//   medium — 30 s–3 min data-preparation steps,
//   long   — 5–12 min simulation chunks, half of them non-interruptible
//            (they modify external state; Sec. III-C lets clients opt
//            out of the interrupt-and-requeue hand-off).
// The question: does the transient pilot fleet still deliver, and what
// does worker churn cost each class?

#include <iostream>

#include "common/experiment.hpp"

using namespace hpcwhisk;

int main() {
  check::ScenarioSpec env = bench::base_scenario();
  env.horizon = env.measure_start + sim::SimTime::hours(12);
  env = bench::apply_env(env);

  sim::Simulation simulation;
  core::HpcWhiskSystem::Config sys_cfg;
  sys_cfg.seed = env.seed;
  sys_cfg.slurm.node_count = env.nodes;
  core::HpcWhiskSystem system{simulation, sys_cfg};
  trace::HpcWorkloadGenerator workload{simulation, system.slurm(), {},
                                       sim::Rng{env.hpc_seed}};

  // --- the scientific function mix ---------------------------------------
  sim::Rng mix_rng{env.seed ^ 0x5C1ULL};
  std::vector<std::string> names;
  const auto azure =
      trace::register_azure_mix_functions(system.functions(), 40, mix_rng);
  names.insert(names.end(), azure.begin(), azure.end());
  for (int i = 0; i < 20; ++i) {
    whisk::FunctionSpec spec;
    spec.name = "prep-" + std::to_string(i);
    spec.memory_mb = 512;
    const sim::LognormalFromQuantiles model{60.0, 170.0, 0.95};  // seconds
    spec.duration = [model](sim::Rng& r) {
      return sim::SimTime::seconds(model.sample(r));
    };
    spec.timeout = sim::SimTime::minutes(15);
    system.functions().put(spec);
    names.push_back(spec.name);
  }
  for (int i = 0; i < 10; ++i) {
    whisk::FunctionSpec spec;
    spec.name = "simchunk-" + std::to_string(i);
    spec.memory_mb = 1024;
    const sim::LognormalFromQuantiles model{420.0, 720.0, 0.95};  // seconds
    spec.duration = [model](sim::Rng& r) {
      return sim::SimTime::seconds(model.sample(r));
    };
    spec.timeout = sim::SimTime::minutes(45);
    spec.interruptible = (i % 2 == 0);  // half opt out (external state)
    system.functions().put(spec);
    names.push_back(spec.name);
  }

  trace::FaasLoadGenerator::Config load_cfg;
  load_cfg.rate_qps = 2.0;
  load_cfg.poisson = true;
  load_cfg.functions = names;
  trace::FaasLoadGenerator faas{
      simulation, load_cfg,
      [&system](const std::string& fn) { (void)system.client().invoke(fn); },
      sim::Rng{env.seed ^ 0xFEEDULL}};

  workload.start();
  system.start();
  const sim::SimTime end = env.horizon;
  simulation.at(env.measure_start, [&faas, end] { faas.start(end); });
  simulation.run_until(end + sim::SimTime::hours(1));  // settle

  std::cout << "bench: extension_scientific (seed " << env.seed << ", "
            << env.nodes << " nodes, "
            << (env.horizon - env.measure_start).to_string()
            << ", 2 QPS Poisson scientific mix)\n\n";

  struct ClassStats {
    std::uint64_t total{0}, ok{0}, timed_out{0}, failed{0}, rejected{0};
    std::uint64_t interruptions{0}, requeues{0};
    std::vector<double> response_s;
  };
  std::map<std::string, ClassStats> classes;
  const auto class_of = [](const std::string& fn) -> std::string {
    if (fn.rfind("azure-", 0) == 0) return "short (azure mix)";
    if (fn.rfind("prep-", 0) == 0) return "medium (prep)";
    return "long (sim chunks)";
  };
  for (const auto& rec : system.controller().activations()) {
    if (rec.submit_time < env.measure_start) continue;
    auto& cls =
        classes[class_of(system.functions().spec(rec.function_index).name)];
    ++cls.total;
    cls.interruptions += rec.interruptions;
    cls.requeues += rec.requeues;
    switch (rec.state) {
      case whisk::ActivationState::kCompleted:
        ++cls.ok;
        cls.response_s.push_back(rec.response_time().to_seconds());
        break;
      case whisk::ActivationState::kTimedOut: ++cls.timed_out; break;
      case whisk::ActivationState::kFailed: ++cls.failed; break;
      case whisk::ActivationState::kRejected503: ++cls.rejected; break;
      default: break;
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (auto& [name, cls] : classes) {
    const auto rt = analysis::summarize(cls.response_s);
    const std::uint64_t accepted = cls.total - cls.rejected;
    rows.push_back({
        name,
        std::to_string(cls.total),
        analysis::fmt_pct(cls.total
                              ? static_cast<double>(cls.rejected) / cls.total
                              : 0),
        analysis::fmt_pct(accepted ? static_cast<double>(cls.ok) / accepted
                                   : 0),
        analysis::fmt_pct(accepted
                              ? static_cast<double>(cls.timed_out) / accepted
                              : 0),
        analysis::fmt_pct(accepted ? static_cast<double>(cls.failed) / accepted
                                   : 0),
        std::to_string(cls.interruptions),
        std::to_string(cls.requeues),
        analysis::fmt(rt.p50, 1),
        analysis::fmt(analysis::percentile(cls.response_s, 0.99), 1),
    });
  }
  analysis::print_table(
      std::cout, "scientific FaaS workload on transient pilots",
      {"class", "calls", "503->cloud", "success*", "timeout*", "capacity-fail*",
       "interrupts", "requeues", "p50 resp [s]", "p99 resp [s]"},
      rows);
  std::cout << "(*of calls accepted on-cluster)\n";

  const auto& wc = system.client().counters();
  std::cout << "offloaded to commercial cloud during outages: "
            << wc.commercial_calls << " of "
            << wc.commercial_calls + wc.hpcwhisk_calls << " calls\n"
            << "finding: short calls ride worker churn via the fast lane; "
               "long-running\nchunks expose the two real limits of a "
               "transient fleet — container capacity\n(Sec. V-C's failure "
               "episode) and the grace-period bound on non-interruptible\n"
               "work (Sec. III-C's >3-minute caveat).\n";
  return 0;
}
