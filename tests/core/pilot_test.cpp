#include "hpcwhisk/core/pilot.hpp"

#include <gtest/gtest.h>

#include "hpcwhisk/core/system.hpp"

namespace hpcwhisk::core {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  whisk::FunctionRegistry registry;
  whisk::Controller controller{sim, broker, registry};
  slurm::Slurmctld ctld;

  Fixture()
      : ctld{sim,
             [] {
               slurm::Slurmctld::Config cfg;
               cfg.node_count = 2;
               cfg.min_pass_gap = SimTime::zero();
               return cfg;
             }(),
             default_partitions()} {
    registry.put(whisk::fixed_duration_function("fn", SimTime::millis(10)));
  }

  std::unique_ptr<whisk::Invoker> make_invoker() {
    return std::make_unique<whisk::Invoker>(sim, broker, registry, controller,
                                            whisk::Invoker::Config{}, Rng{3});
  }

  slurm::JobId submit_pilot_job() {
    slurm::JobSpec spec;
    spec.partition = "pilot";
    spec.num_nodes = 1;
    spec.time_limit = SimTime::minutes(90);
    spec.actual_runtime = SimTime::max();
    return ctld.submit(spec);
  }
};

TEST(PilotJob, RegistersAfterWarmup) {
  Fixture f;
  const auto job = f.submit_pilot_job();
  f.sim.run_until(SimTime::seconds(1));
  PilotJob pilot{f.sim, f.ctld, job, f.make_invoker(), SimTime::seconds(15)};
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kWarmingUp);
  EXPECT_EQ(f.controller.healthy_count(), 0u);
  f.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kServing);
  EXPECT_EQ(f.controller.healthy_count(), 1u);
  EXPECT_EQ(pilot.serving_since(), SimTime::seconds(16));
}

TEST(PilotJob, SigtermDuringWarmupExitsJobImmediately) {
  Fixture f;
  const auto job = f.submit_pilot_job();
  f.sim.run_until(SimTime::seconds(1));
  PilotJob pilot{f.sim, f.ctld, job, f.make_invoker(), SimTime::seconds(30)};
  pilot.on_sigterm();
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kExited);
  // The Slurm job was released (no grace consumed).
  EXPECT_FALSE(f.ctld.job(job).is_active());
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(f.controller.healthy_count(), 0u);  // never registered
}

TEST(PilotJob, SigtermWhileServingDrainsAndExitsEarly) {
  Fixture f;
  const auto job = f.submit_pilot_job();
  f.sim.run_until(SimTime::seconds(1));
  PilotJob pilot{f.sim, f.ctld, job, f.make_invoker(), SimTime::seconds(10)};
  f.sim.run_until(SimTime::seconds(30));
  ASSERT_EQ(pilot.phase(), PilotJob::Phase::kServing);
  pilot.on_sigterm();
  // Idle invoker: drain completes synchronously.
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kExited);
  EXPECT_FALSE(f.ctld.job(job).is_active());
  EXPECT_EQ(f.controller.healthy_count(), 0u);
}

TEST(PilotJob, JobEndWithoutSigtermHardKills) {
  Fixture f;
  const auto job = f.submit_pilot_job();
  f.sim.run_until(SimTime::seconds(1));
  PilotJob pilot{f.sim, f.ctld, job, f.make_invoker(), SimTime::seconds(5)};
  f.sim.run_until(SimTime::seconds(20));
  ASSERT_EQ(pilot.phase(), PilotJob::Phase::kServing);
  pilot.on_job_end();  // e.g. node failure: no grace, no drain
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kExited);
  EXPECT_TRUE(pilot.invoker().dead());
}

TEST(PilotJob, DuplicateSigtermIsIdempotent) {
  Fixture f;
  const auto job = f.submit_pilot_job();
  f.sim.run_until(SimTime::seconds(1));
  PilotJob pilot{f.sim, f.ctld, job, f.make_invoker(), SimTime::seconds(5)};
  f.sim.run_until(SimTime::seconds(10));
  pilot.on_sigterm();
  pilot.on_sigterm();
  EXPECT_EQ(pilot.phase(), PilotJob::Phase::kExited);
}

}  // namespace
}  // namespace hpcwhisk::core
