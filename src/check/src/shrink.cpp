#include "hpcwhisk/check/shrink.hpp"

#include <algorithm>
#include <utility>

#include "hpcwhisk/check/simcheck.hpp"

namespace hpcwhisk::check {
namespace {

bool still_fails(const ScenarioSpec& spec, const std::string& invariant,
                 const InvariantSuite& suite) {
  CheckOptions opts;
  opts.replay_check = false;  // one run per candidate; replay is re-checked
                              // on the final shrunk spec by the caller
  const CheckResult result = check_scenario(spec, suite, opts);
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

}  // namespace

ShrinkResult shrink(const ScenarioSpec& failing, const std::string& invariant,
                    const InvariantSuite& suite,
                    const ShrinkOptions& options) {
  ShrinkResult res;
  res.invariant = invariant;
  ScenarioSpec best = failing;

  const auto attempt = [&](ScenarioSpec candidate) {
    if (res.attempts >= options.max_attempts) return false;
    ++res.attempts;
    if (!still_fails(candidate, invariant, suite)) return false;
    best = std::move(candidate);
    ++res.reductions;
    return true;
  };

  bool progress = true;
  while (progress && res.attempts < options.max_attempts) {
    progress = false;

    // Collapse the federation first: one cluster halves the run cost and
    // usually keeps single-cluster invariant failures alive.
    if (best.clusters > 1) {
      ScenarioSpec c = best;
      c.clusters = 1;
      for (ScenarioFault& f : c.faults) f.cluster = 0;
      progress |= attempt(std::move(c));
    }

    // Faults, ddmin-style: all, then halves, then singles.
    if (!best.faults.empty()) {
      {
        ScenarioSpec c = best;
        c.faults.clear();
        progress |= attempt(std::move(c));
      }
      if (best.faults.size() > 1) {
        const std::size_t half = best.faults.size() / 2;
        {
          ScenarioSpec c = best;
          c.faults.erase(c.faults.begin(),
                         c.faults.begin() + static_cast<std::ptrdiff_t>(half));
          progress |= attempt(std::move(c));
        }
        {
          ScenarioSpec c = best;
          c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(half),
                         c.faults.end());
          progress |= attempt(std::move(c));
        }
      }
      if (!best.faults.empty() && best.faults.size() <= 8) {
        for (std::size_t i = 0;
             i < best.faults.size() && res.attempts < options.max_attempts;) {
          ScenarioSpec c = best;
          c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(i));
          if (attempt(std::move(c))) {
            progress = true;  // best shrank; index i now names the next fault
          } else {
            ++i;
          }
        }
      }
    }

    // Load shape.
    if (best.faas_functions > 1) {
      ScenarioSpec c = best;
      c.faas_functions = 1;
      if (attempt(std::move(c))) {
        progress = true;
      } else if (best.faas_functions > 2) {
        ScenarioSpec h = best;
        h.faas_functions = best.faas_functions / 2;
        progress |= attempt(std::move(h));
      }
    }
    if (best.faas_qps > 0.5) {
      ScenarioSpec c = best;
      c.faas_qps = std::max(0.5, best.faas_qps / 2.0);
      progress |= attempt(std::move(c));
    }
    if (best.fib_per_length > 1) {
      ScenarioSpec c = best;
      c.fib_per_length = 1;
      progress |= attempt(std::move(c));
    }
    if (best.hpc_backlog > 4) {
      ScenarioSpec c = best;
      c.hpc_backlog = std::max<std::size_t>(4, best.hpc_backlog / 2);
      progress |= attempt(std::move(c));
    }

    // Geometry.
    if (best.nodes > 4) {
      ScenarioSpec c = best;
      c.nodes = std::max<std::uint32_t>(4, best.nodes / 2);
      progress |= attempt(std::move(c));
    }
    if (best.horizon > sim::SimTime::minutes(10)) {
      ScenarioSpec c = best;
      c.horizon = std::max(sim::SimTime::minutes(10),
                           sim::SimTime::micros(best.horizon.ticks() / 2));
      if (c.res_period == sim::SimTime::zero()) {
        // A single reservation window keeps its share of the horizon,
        // so it stays inside the shrunk run.
        c.res_start = sim::SimTime::seconds(
            c.horizon.to_seconds() *
            (best.res_start.to_seconds() / best.horizon.to_seconds()));
      }
      progress |= attempt(std::move(c));
    }
  }

  res.spec = std::move(best);
  return res;
}

}  // namespace hpcwhisk::check
