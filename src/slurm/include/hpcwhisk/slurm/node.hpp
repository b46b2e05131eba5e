#pragma once
// Cluster node model and the observable node states used by the paper's
// Slurm-level monitoring perspective (idle / HPC / pilot / down).

#include <cstdint>
#include <vector>

#include "hpcwhisk/slurm/job.hpp"
#include "hpcwhisk/slurm/tres.hpp"

namespace hpcwhisk::slurm {

/// Internal allocation state of a node.
enum class NodeState {
  kIdle,
  kAllocated,
  kDown,
};

/// What an external observer (the paper's 10-second `sinfo` logger)
/// sees: a node is either running prime HPC work, running an HPC-Whisk
/// pilot, idle, or unavailable.
enum class ObservedNodeState : std::uint8_t {
  kIdle = 0,
  kHpc = 1,
  kPilot = 2,
  kDown = 3,
};

[[nodiscard]] const char* to_string(ObservedNodeState s);

struct Node {
  NodeId id{0};
  NodeState state{NodeState::kIdle};

  // One bookkeeping for both scheduling modes. In TRES mode
  // (Config::fidelity.tres_mode) several jobs can co-reside on partial
  // allocations. A legacy node is the one-job case: a unit capacity
  // that every (whole-node) job fills, so `running_jobs` holds at most
  // one id.
  TresVector capacity{};   ///< total TRES this node offers
  TresVector allocated{};  ///< Σ per-node TRES of running/completing jobs
  std::vector<JobId> running_jobs{};  ///< non-empty iff state == kAllocated
};

}  // namespace hpcwhisk::slurm
