#include "hpcwhisk/slurm/slurmctld.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::slurm {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending: return "PENDING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleting: return "COMPLETING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kTimedOut: return "TIMEOUT";
    case JobState::kPreempted: return "PREEMPTED";
    case JobState::kCancelled: return "CANCELLED";
    case JobState::kNodeFailed: return "NODE_FAIL";
  }
  return "?";
}

const char* to_string(EndReason r) {
  switch (r) {
    case EndReason::kCompleted: return "completed";
    case EndReason::kTimeLimit: return "time-limit";
    case EndReason::kPreempted: return "preempted";
    case EndReason::kCancelled: return "cancelled";
    case EndReason::kNodeFailed: return "node-failed";
  }
  return "?";
}

const char* to_string(JobEventKind k) {
  switch (k) {
    case JobEventKind::kSubmitted: return "submitted";
    case JobEventKind::kClaimed: return "claimed";
    case JobEventKind::kLaunched: return "launched";
    case JobEventKind::kSigterm: return "sigterm";
    case JobEventKind::kEnded: return "ended";
  }
  return "?";
}

const char* to_string(ObservedNodeState s) {
  switch (s) {
    case ObservedNodeState::kIdle: return "idle";
    case ObservedNodeState::kHpc: return "hpc";
    case ObservedNodeState::kPilot: return "pilot";
    case ObservedNodeState::kDown: return "down";
  }
  return "?";
}

namespace {
/// A variable-length job's limit for a `hole` before its next
/// reservation: the whole slots that fit, clamped to its declared range.
sim::SimTime fit_to_hole(const JobSpec& spec, sim::SimTime hole) {
  return std::clamp(kSlot * (hole / kSlot), spec.time_min, spec.time_limit);
}
}  // namespace

Slurmctld::Slurmctld(sim::Simulation& simulation, Config config,
                     std::vector<Partition> partitions)
    : sim_{simulation}, config_{config} {
  if (config_.node_count == 0)
    throw std::invalid_argument("Slurmctld: node_count must be positive");
  for (auto& p : partitions) {
    if (partition_index(p.name) != partitions_.size())
      throw std::invalid_argument("Slurmctld: duplicate partition " + p.name);
    partitions_.push_back(std::move(p));
  }
  nodes_.resize(config_.node_count);
  for (std::uint32_t i = 0; i < config_.node_count; ++i) nodes_[i].id = i;
  summary_.resize(config_.node_count);
  idle_order_.resize(config_.node_count);
  for (std::uint32_t i = 0; i < config_.node_count; ++i) idle_order_[i] = i;
  node_claims_.assign(config_.node_count, 0);
  last_freed_.assign(config_.node_count, sim::SimTime::zero());
  draining_.assign(config_.node_count, false);
  last_pass_reserved_from_.assign(config_.node_count, sim::SimTime::max());

  // Fidelity extensions (ROADMAP item 4); everything below is inert with
  // the default-constructed Fidelity block.
  tres_on_ = config_.fidelity.tres_mode;
  if (!tres_on_) {
    // Whole-node scheduling is the one-job case of TRES packing: every
    // node offers one cpu and every job asks for all of it.
    config_.fidelity.node_capacity = TresVector{1, 0, 0};
  } else if (config_.fidelity.node_capacity.is_zero()) {
    throw std::invalid_argument(
        "Slurmctld: tres_mode requires a non-zero node_capacity");
  }
  for (Node& node : nodes_) node.capacity = config_.fidelity.node_capacity;
  for (const Qos& q : config_.fidelity.qos) {
    if (q.name.empty())
      throw std::invalid_argument("Slurmctld: QOS with empty name");
    if (!qos_.emplace(q.name, q).second)
      throw std::invalid_argument("Slurmctld: duplicate QOS " + q.name);
  }
  qos_on_ = !qos_.empty();
  for (const Reservation& r : config_.fidelity.reservations) add_reservation(r);

  sim_.every(kSchedInterval, [this] { run_sched_pass(true); });
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("slurm.jobs.submitted").set(counters_.submitted);
      m.counter("slurm.jobs.started").set(counters_.started);
      m.counter("slurm.jobs.completed").set(counters_.completed);
      m.counter("slurm.jobs.timed_out").set(counters_.timed_out);
      m.counter("slurm.jobs.preempted").set(counters_.preempted);
      m.counter("slurm.jobs.cancelled").set(counters_.cancelled);
      m.counter("slurm.node_failures").set(counters_.node_failures);
      m.counter("slurm.sched_passes").set(counters_.sched_passes);
      m.gauge("slurm.nodes.idle").set(static_cast<double>(idle_node_count()));
      m.gauge("slurm.jobs.running").set(static_cast<double>(running_count()));
    });
  }
}

void Slurmctld::enqueue_pending(std::int32_t tier, const JobRecord& rec) {
  auto& q = pending_[tier];
  // effective_priority == spec.priority without a QOS, so legacy queue
  // orderings (and golden decision logs) are unchanged.
  const QueueEntry entry{rec.effective_priority, rec.id};
  q.insert(std::upper_bound(q.begin(), q.end(), entry), entry);
}

void Slurmctld::remove_pending(std::int32_t tier, JobId id) {
  auto& q = pending_[tier];
  q.erase(std::remove_if(q.begin(), q.end(),
                         [id](const QueueEntry& e) { return e.id == id; }),
          q.end());
}

JobId Slurmctld::submit(JobSpec spec) {
  const std::size_t part_index = partition_index(spec.partition);
  if (part_index == partitions_.size())
    throw std::invalid_argument("Slurmctld::submit: unknown partition '" +
                                spec.partition + "'");
  const Partition& part = partitions_[part_index];
  if (spec.num_nodes == 0 || spec.num_nodes > nodes_.size())
    throw std::invalid_argument("Slurmctld::submit: bad node count");
  if (spec.time_limit <= sim::SimTime::zero())
    throw std::invalid_argument("Slurmctld::submit: non-positive time limit");
  if (part.max_time > sim::SimTime::zero() && spec.time_limit > part.max_time)
    throw std::invalid_argument("Slurmctld::submit: limit exceeds partition max");
  if (spec.time_min > spec.time_limit)
    throw std::invalid_argument("Slurmctld::submit: time_min > time_limit");
  if (!tres_on_ || spec.tres_per_node.is_zero()) {
    // Whole node: every legacy request, and an all-zero TRES request.
    spec.tres_per_node = config_.fidelity.node_capacity;
  } else if (!spec.tres_per_node.fits_within(config_.fidelity.node_capacity)) {
    throw std::invalid_argument(
        "Slurmctld::submit: TRES request exceeds node capacity");
  }
  const Qos* qos = find_qos(spec.qos);
  if (!spec.qos.empty() && qos_on_ && qos == nullptr)
    throw std::invalid_argument("Slurmctld::submit: unknown QOS '" + spec.qos +
                                "'");

  JobRecord& rec = jobs_.emplace_back();
  rec.id = jobs_.size();
  rec.partition_index = static_cast<std::uint32_t>(part_index);
  rec.priority_tier = part.priority_tier;
  rec.preemptible = part.preempt_mode == PreemptMode::kCancel;
  rec.submit_time = sim_.now();
  rec.spec = std::move(spec);
  rec.preempt_tier = qos ? qos->preempt_tier : part.priority_tier;
  rec.effective_priority = rec.spec.priority + (qos ? qos->priority_weight : 0);
  const JobId id = rec.id;
  const bool is_var = rec.spec.time_min > sim::SimTime::zero();
  const std::int32_t tier = rec.priority_tier;
  enqueue_pending(tier, rec);
  ++counters_.submitted;
  notify_job(JobEventKind::kSubmitted, rec);
  // Variable-length pilots wait for the periodic pass.
  if (!(is_var && tier == 0)) request_schedule();
  return id;
}

bool Slurmctld::cancel(JobId id) {
  if (!is_known(id)) return false;
  JobRecord& rec = record(id);
  switch (rec.state) {
    case JobState::kPending:
      remove_pending(rec.priority_tier, id);
      finish_job(rec, EndReason::kCancelled);
      return true;
    case JobState::kRunning:
      begin_grace(rec, EndReason::kTimeLimit);
      return true;
    case JobState::kCompleting:
      return true;  // already on its way out
    default:
      return false;
  }
}

void Slurmctld::job_exited(JobId id) {
  if (!is_known(id)) return;
  JobRecord& rec = record(id);
  if (!rec.is_active()) return;
  finish_job(rec, rec.state == JobState::kCompleting
                      ? rec.grace_reason  // exited during grace
                      : EndReason::kCompleted);
}

void Slurmctld::set_node_down(NodeId id) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  if (node.state == NodeState::kAllocated) {
    // Marked draining, so the last job out takes the node down in
    // free_nodes (one `down`, no idle stamp), and a claim whose victim
    // ends here requeues instead of launching onto the node.
    draining_[id] = true;
    ++counters_.node_failures;
    const std::vector<JobId> doomed = node.running_jobs;
    for (const JobId jid : doomed) {
      JobRecord& rec = record(jid);
      if (rec.is_active()) finish_job(rec, EndReason::kNodeFailed);
    }
  }
  requeue_claim_on(id);
  if (node.state != NodeState::kDown) {
    node.state = NodeState::kDown;
    refresh_node(id);
  }
  request_schedule();
}

void Slurmctld::fail_node(NodeId id, sim::SimTime grace) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kFault, obs::Phase::kInstant,
                              "node_fail", obs::Track::kSlurmctld, 0, id,
                              sim_.now(), grace.to_seconds());
  }
  if (grace <= sim::SimTime::zero() || node.state != NodeState::kAllocated) {
    set_node_down(id);
    return;
  }
  ++counters_.node_failures;
  // Like a maintenance drain, the node leaves service once its jobs are
  // gone, but here they are killed on a truncated clock. kCompleting jobs
  // keep their earlier-or-equal partition deadline.
  draining_[id] = true;
  const std::vector<JobId> doomed = node.running_jobs;
  for (const JobId jid : doomed) {
    JobRecord& rec = record(jid);
    if (rec.state == JobState::kRunning)
      begin_grace(rec, EndReason::kNodeFailed, grace);
  }
}

void Slurmctld::set_node_up(NodeId id) {
  Node& node = nodes_.at(id);
  draining_[id] = false;
  if (node.state != NodeState::kDown) return;
  node.state = NodeState::kIdle;
  refresh_node(id);
  request_schedule();
}

void Slurmctld::drain_node(NodeId id) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  draining_[id] = true;
  if (node.state == NodeState::kIdle) {
    node.state = NodeState::kDown;
    refresh_node(id);
  }
  // Allocated: the running job finishes normally; free_nodes handles the
  // hand-over to maintenance.
}

bool Slurmctld::is_draining(NodeId id) const { return draining_.at(id); }

const JobRecord& Slurmctld::job(JobId id) const {
  if (!is_known(id)) throw std::out_of_range("Slurmctld::job: unknown id");
  return record(id);
}

bool Slurmctld::is_known(JobId id) const {
  return id >= 1 && id <= jobs_.size();
}

void Slurmctld::for_each_job(
    const std::function<void(const JobRecord&)>& fn) const {
  for (const JobRecord& rec : jobs_) fn(rec);
}

std::size_t Slurmctld::partition_index(const std::string& name) const {
  std::size_t i = 0;
  while (i < partitions_.size() && partitions_[i].name != name) ++i;
  return i;
}

std::size_t Slurmctld::pending_count(const std::string& partition) const {
  const std::size_t index = partition_index(partition);
  std::size_t n = 0;
  for (const auto& [tier, q] : pending_) {
    for (const QueueEntry& e : q) {
      if (record(e.id).partition_index == index) ++n;
    }
  }
  return n;
}

std::size_t Slurmctld::running_count() const { return active_jobs_; }

ObservedNodeState Slurmctld::observed_state(NodeId id) const {
  return summary_.at(id).state;
}

std::vector<ObservedNodeState> Slurmctld::observed_states() const {
  std::vector<ObservedNodeState> out(summary_.size());
  for (std::size_t i = 0; i < summary_.size(); ++i) out[i] = summary_[i].state;
  return out;
}

std::size_t Slurmctld::idle_node_count() const { return idle_order_.size(); }

JobId Slurmctld::claimant(NodeId id) const { return node_claims_.at(id); }

Slurmctld::StateTotals Slurmctld::state_totals() const {
  StateTotals t;
  for (const NodeSummary& s : summary_) {
    switch (s.state) {
      case ObservedNodeState::kIdle: ++t.idle; break;
      case ObservedNodeState::kHpc: ++t.hpc; break;
      case ObservedNodeState::kPilot: ++t.pilot; break;
      case ObservedNodeState::kDown: ++t.down; break;
    }
  }
  return t;
}

void Slurmctld::schedule_now() { run_sched_pass(false); }

void Slurmctld::request_schedule() {
  if (pass_requested_) return;
  pass_requested_ = true;
  const sim::SimTime at =
      std::max(sim_.now(), last_pass_ + config_.min_pass_gap);
  sim_.at(at, [this] {
    pass_requested_ = false;
    run_sched_pass(false);
  });
}

void Slurmctld::build_availability_into(std::int32_t tier,
                                        Availability& a) const {
  const sim::SimTime now = sim_.now();
  a.free_at.resize(summary_.size());
  for (std::size_t i = 0; i < summary_.size(); ++i) {
    const NodeSummary& s = summary_[i];
    // An allocated node is free when its *last* co-resident job is
    // expected out, unless every job on it is preemptable by `tier`.
    sim::SimTime free = now;
    if (s.state == ObservedNodeState::kDown) {
      free = sim::SimTime::max();
    } else if (s.state != ObservedNodeState::kIdle && s.preempt_tier >= tier) {
      free = std::max(now, s.free_at);
    }
    a.free_at[i] = free;
  }
  // Claimed nodes are spoken for until the claimant's expected end.
  for (const PendingLaunch& pl : pending_launches_) {
    const JobRecord& claimant = record(pl.id);
    const sim::SimTime claim_end =
        now + claimant.granted_limit + partition_of(claimant).grace_time;
    for (const NodeId n : pl.nodes)
      a.free_at[n] = std::max(a.free_at[n], claim_end);
  }
}

Slurmctld::Availability Slurmctld::availability_snapshot(
    std::int32_t tier) const {
  Availability a;
  build_availability_into(tier, a);
  return a;
}

void Slurmctld::run_sched_pass(bool periodic) {
  ++counters_.sched_passes;
  const std::uint64_t started_before = counters_.started;
  const sim::SimTime now = sim_.now();
  last_pass_ = now;
  // The two passes are different policies over the same node and claim
  // bookkeeping.
  if (tres_on_) {
    tres_pass(periodic);
  } else {
    whole_node_pass(periodic);
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kSched, obs::Phase::kInstant, "sched_pass",
        obs::Track::kSlurmctld, 0, counters_.sched_passes, now,
        periodic ? 1.0 : 0.0,
        static_cast<double>(counters_.started - started_before));
  }
}

void Slurmctld::whole_node_pass(bool periodic) {
  const sim::SimTime now = sim_.now();

  // Node lists for this pass: idle nodes in LIFO reuse order (most
  // recently freed first) and pilot nodes in preemption order (youngest
  // first), less the claimed ones. Taking a node erases it in place, so
  // both stay in order all pass. All pass-local vectors are member
  // scratch: steady-state passes allocate nothing (pinned by SchedGolden).
  PassCache& cache = pass_cache_;
  cache.idle = idle_order_;
  cache.pilot_held = pilot_order_;
  if (!pending_launches_.empty()) {
    const auto claimed = [this](NodeId n) { return node_claims_[n] != 0; };
    std::erase_if(cache.idle, claimed);
    std::erase_if(cache.pilot_held, claimed);
  }

  // ---- Phase 1: HPC tiers (>= 1), highest first, backfill with up to
  // reservation_depth future reservations. reserved_from[n] = earliest
  // instant from which node n is reserved for a blocked job (max() when
  // unreserved); backfilled jobs must end before it.
  std::vector<sim::SimTime>& reserved_from = reserved_from_scratch_;
  reserved_from.assign(nodes_.size(), sim::SimTime::max());
  std::size_t reservations_made = 0;

  for (auto& [tier, queue] : pending_) {
    if (tier == 0) break;  // pilots handled in phase 2

    // Planning timeline for this tier: when each node is expected free,
    // advanced as we launch jobs and book reservations within this pass.
    // Built once per (pass, tier) into the cached buffer and then
    // mutated in place — never rebuilt or copied mid-tier.
    build_availability_into(tier, avail_scratch_);
    horizon_.reset(avail_scratch_.free_at, now + kBackfillWindow);

    std::vector<QueueEntry>& still_pending = still_pending_scratch_;
    still_pending.clear();
    still_pending.reserve(queue.size());
    std::size_t examined = 0;
    for (const QueueEntry& entry : queue) {
      JobRecord& rec = record(entry.id);
      if (examined++ >= config_.backfill_depth) {
        still_pending.push_back(entry);
        continue;
      }
      if (try_start_hpc(rec, cache, reserved_from)) {
        // Reflect the launch (or claim) in the planning timeline.
        const sim::SimTime busy_until =
            now + rec.granted_limit + partition_of(rec).grace_time;
        for (const NodeId n : rec.nodes) horizon_.raise(n, busy_until);
        continue;
      }
      still_pending.push_back(entry);
      // Book a future reservation for this blocked job on the nodes that
      // free earliest in the planning timeline.
      if (reservations_made < config_.reservation_depth &&
          horizon_.book(rec.spec.num_nodes, rec.spec.time_limit,
                        reserved_from)) {
        ++reservations_made;
      }
    }
    queue.swap(still_pending);
  }

  // ---- Phase 2: tier-0 pilot placement on idle nodes. ------------------
  place_pilots(cache, reserved_from, periodic);

  // Remember this pass's reservation picture for stale var sizing (the
  // next pass refills the scratch it leaves behind).
  if (periodic) last_pass_reserved_from_.swap(reserved_from);
}

bool Slurmctld::try_start_hpc(JobRecord& rec, PassCache& cache,
                              const std::vector<sim::SimTime>& reserved_until) {
  const sim::SimTime now = sim_.now();
  // Variable-length jobs can shrink to time_min, so that is what must fit
  // before a reservation; fixed jobs need their full declared limit.
  const sim::SimTime limit = rec.spec.time_min > sim::SimTime::zero()
                                 ? rec.spec.time_min
                                 : rec.spec.time_limit;

  // Cheap reject: not enough usable nodes even before constraints.
  if (cache.idle.size() + cache.pilot_held.size() < rec.spec.num_nodes)
    return false;

  // A reserved node is usable only if this job ends before the
  // reservation starts (EASY backfill condition).
  const auto usable = [&](NodeId n) {
    return reserved_until[n] == sim::SimTime::max() ||
           now + limit <= reserved_until[n];
  };

  // Prefer idle nodes: fewer preemptions, no grace-period delay.
  std::vector<NodeId>& chosen = chosen_scratch_;
  chosen.clear();
  chosen.reserve(rec.spec.num_nodes);
  std::vector<std::size_t>& taken_idle_idx = taken_idle_scratch_;
  taken_idle_idx.clear();
  for (std::size_t i = 0; i < cache.idle.size(); ++i) {
    if (chosen.size() == rec.spec.num_nodes) break;
    if (!usable(cache.idle[i])) continue;
    chosen.push_back(cache.idle[i]);
    taken_idle_idx.push_back(i);
  }
  // Preempt the *youngest* pilots first (the pass keeps pilot_held in
  // that order): the least accumulated serving time is lost, and
  // long-lived workers (warm containers, long queues) survive — matching
  // the long-serving invoker tail the paper reports.
  std::vector<JobId>& victims = victim_scratch_;
  victims.clear();
  std::vector<std::size_t>& taken_pilot_idx = taken_pilot_scratch_;
  taken_pilot_idx.clear();
  for (std::size_t i = 0; i < cache.pilot_held.size(); ++i) {
    if (chosen.size() == rec.spec.num_nodes) break;
    if (!usable(cache.pilot_held[i])) continue;
    chosen.push_back(cache.pilot_held[i]);
    victims.push_back(nodes_[cache.pilot_held[i]].running_jobs.front());
    taken_pilot_idx.push_back(i);
  }
  if (chosen.size() < rec.spec.num_nodes) return false;

  // Commit: strike the chosen nodes from the pass cache (erase by value,
  // back-to-front to keep indices valid).
  for (auto it = taken_idle_idx.rbegin(); it != taken_idle_idx.rend(); ++it)
    cache.idle.erase(cache.idle.begin() + static_cast<std::ptrdiff_t>(*it));
  for (auto it = taken_pilot_idx.rbegin(); it != taken_pilot_idx.rend(); ++it)
    cache.pilot_held.erase(cache.pilot_held.begin() +
                           static_cast<std::ptrdiff_t>(*it));

  // Variable-length HPC jobs: size to the nearest reservation horizon.
  sim::SimTime granted = rec.spec.time_limit;
  if (rec.spec.time_min > sim::SimTime::zero()) {
    sim::SimTime horizon = sim::SimTime::max();
    for (const NodeId n : chosen)
      horizon = std::min(horizon, reserved_until[n]);
    if (horizon != sim::SimTime::max())
      granted = fit_to_hole(rec.spec, horizon - now);
  }

  if (victims.empty()) {
    launch(rec, std::move(chosen), granted);
    return true;
  }

  claim(rec, chosen, granted, victims);
  return true;
}

bool Slurmctld::open_var_pass(bool periodic) {
  const sim::SimTime now = sim_.now();
  if (!periodic || now - last_var_pass_ < config_.var_pass_period)
    return false;
  last_var_pass_ = now;
  return true;
}

void Slurmctld::place_pilots(PassCache& cache,
                             const std::vector<sim::SimTime>& reserved_from,
                             bool periodic) {
  const auto tier0 = pending_.find(0);
  if (tier0 == pending_.end() || tier0->second.empty()) return;
  auto& queue = tier0->second;

  const sim::SimTime now = sim_.now();
  const bool var_allowed = open_var_pass(periodic);

  // For each idle node, pick the best (highest-priority) queued pilot
  // that may start there: under the preempt-aware policy that is simply
  // the head of the queue; under hole-fitting, the first pilot whose
  // declared limit fits before the node's reservation.
  // Pilots take the *coldest* idle nodes (longest idle first): under the
  // LIFO reuse order HPC jobs consume hot nodes, so cold placement keeps
  // pilots out of the line of fire and lengthens their serving lives.
  std::vector<NodeId>& unused_nodes = unused_nodes_scratch_;
  unused_nodes.clear();
  std::vector<NodeId>& cold_first = cold_first_scratch_;
  cold_first.assign(cache.idle.rbegin(), cache.idle.rend());
  for (const NodeId node : cold_first) {
    if (now - last_freed_[node] < config_.pilot_min_idle) {
      unused_nodes.push_back(node);
      continue;
    }
    if (queue.empty()) {
      unused_nodes.push_back(node);
      continue;
    }
    const sim::SimTime hole = reserved_from[node] == sim::SimTime::max()
                                  ? sim::SimTime::max()
                                  : reserved_from[node] - now;

    bool placed = false;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      JobRecord& rec = record(it->id);
      assert(rec.spec.num_nodes == 1 &&
             "tier-0 pilots are single-node by design");
      const bool is_var = rec.spec.time_min > sim::SimTime::zero();
      if (is_var && !var_allowed) continue;

      sim::SimTime granted = rec.spec.time_limit;
      if (is_var) {
        // Sized against the previous periodic pass's availability
        // picture, not this pass's.
        const sim::SimTime stale_from = last_pass_reserved_from_[node];
        if (stale_from != sim::SimTime::max())
          granted = fit_to_hole(rec.spec, stale_from - now);
      } else if (config_.pilot_placement == PilotPlacement::kHoleFitting &&
                 hole != sim::SimTime::max() && rec.spec.time_limit > hole) {
        continue;  // does not fit; try a shorter pilot for this node
      }

      queue.erase(it);
      launch(rec, {node}, granted);
      placed = true;
      break;
    }
    if (!placed) unused_nodes.push_back(node);
  }
  std::reverse(unused_nodes.begin(), unused_nodes.end());
  cache.idle.swap(unused_nodes);
}

void Slurmctld::launch(JobRecord& rec, std::vector<NodeId> nodes,
                       sim::SimTime granted_limit) {
  const sim::SimTime now = sim_.now();
  rec.state = JobState::kRunning;
  rec.start_time = now;
  rec.granted_limit = granted_limit;
  rec.nodes = std::move(nodes);
  for (const NodeId n : rec.nodes) {
    Node& node = nodes_.at(n);
    assert(rec.spec.tres_per_node.fits_within(node.capacity - node.allocated));
    node.allocated += rec.spec.tres_per_node;
    node.running_jobs.push_back(rec.id);
    node.state = NodeState::kAllocated;
    refresh_node(n);
  }
  ++active_jobs_;
  ++counters_.started;
  notify_job(JobEventKind::kLaunched, rec);
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_launch",
        obs::Track::kSlurmctld, 0, rec.id, now,
        static_cast<double>(rec.nodes.size()), granted_limit.to_seconds());
  }

  const JobId id = rec.id;
  const sim::SimTime natural =
      rec.spec.actual_runtime == sim::SimTime::max()
          ? sim::SimTime::max()
          : now + rec.spec.actual_runtime;
  const sim::SimTime at_limit = now + granted_limit;
  if (natural <= at_limit) {
    rec.end_event = sim_.at(natural, [this, id] {
      JobRecord& r = record(id);
      r.end_event = {};
      finish_job(r, EndReason::kCompleted);
    });
  } else {
    // The job will outlive its granted limit: SIGTERM at the limit,
    // grace, then SIGKILL (Prometheus grants the full grace on timeout
    // too — Sec. III-C: "because of eviction or timeout").
    rec.end_event = sim_.at(at_limit, [this, id] {
      JobRecord& r = record(id);
      r.end_event = {};
      begin_grace(r, EndReason::kTimeLimit);
    });
  }

  if (rec.spec.on_start) {
    auto cb = rec.spec.on_start;
    // A job that got SIGTERM inside the latency is already leaving: it
    // never learns it started.
    sim_.after(kLaunchLatency, [this, id, cb] {
      if (record(id).state == JobState::kRunning) cb(record(id));
    });
  }
}

void Slurmctld::begin_grace(JobRecord& rec, EndReason reason,
                            sim::SimTime grace_override) {
  assert(rec.state == JobState::kRunning);
  const sim::SimTime now = sim_.now();
  const Partition& part = partition_of(rec);
  sim::SimTime grace = part.grace_time;
  if (grace_override != sim::SimTime::max())
    grace = std::min(grace, grace_override);
  rec.state = JobState::kCompleting;
  rec.grace_reason = reason;
  // end_time doubles as the SIGKILL deadline while completing.
  rec.end_time = now + grace;

  // The natural-end event no longer applies (we are being terminated);
  // unless the job would finish on its own before the SIGKILL deadline.
  if (rec.end_event.valid()) {
    sim_.cancel(rec.end_event);
    rec.end_event = {};
  }
  const JobId id = rec.id;
  const sim::SimTime natural =
      rec.spec.actual_runtime == sim::SimTime::max()
          ? sim::SimTime::max()
          : rec.start_time + rec.spec.actual_runtime;
  if (natural < rec.end_time) {
    rec.end_event = sim_.at(natural, [this, id] {
      JobRecord& r = record(id);
      r.end_event = {};
      finish_job(r, EndReason::kCompleted);
    });
  }

  rec.kill_event = sim_.at(rec.end_time, [this, id, reason] {
    JobRecord& r = record(id);
    r.kill_event = {};
    finish_job(r, reason);
  });
  // The SIGKILL deadline may free the nodes before the granted limit.
  for (const NodeId n : rec.nodes) refresh_node(n);

  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_grace",
        obs::Track::kSlurmctld, 0, rec.id, now, grace.to_seconds(),
        static_cast<double>(static_cast<int>(reason)));
  }
  notify_job(JobEventKind::kSigterm, rec, rec.end_time, grace, reason);

  if (rec.spec.on_sigterm) rec.spec.on_sigterm(rec);
}

void Slurmctld::finish_job(JobRecord& rec, EndReason reason) {
  if (rec.end_event.valid()) {
    sim_.cancel(rec.end_event);
    rec.end_event = {};
  }
  if (rec.kill_event.valid()) {
    sim_.cancel(rec.kill_event);
    rec.kill_event = {};
  }
  const bool was_active = rec.is_active();
  if (was_active) --active_jobs_;
  rec.end_time = sim_.now();
  switch (reason) {
    case EndReason::kCompleted:
      rec.state = JobState::kCompleted;
      ++counters_.completed;
      break;
    case EndReason::kTimeLimit:
      rec.state = JobState::kTimedOut;
      ++counters_.timed_out;
      break;
    case EndReason::kPreempted:
      rec.state = JobState::kPreempted;
      ++counters_.preempted;
      break;
    case EndReason::kCancelled:
      rec.state = JobState::kCancelled;
      ++counters_.cancelled;
      break;
    case EndReason::kNodeFailed:
      rec.state = JobState::kNodeFailed;
      break;
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_end",
        obs::Track::kSlurmctld, 0, rec.id, rec.end_time,
        static_cast<double>(static_cast<int>(reason)));
  }
  notify_job(JobEventKind::kEnded, rec, sim::SimTime::zero(),
             sim::SimTime::zero(), reason);
  if (was_active) free_nodes(rec);
  victim_ended(rec.id);
  if (rec.spec.on_end) rec.spec.on_end(rec, reason);
  if (was_active) request_schedule();
}

void Slurmctld::free_nodes(const JobRecord& rec) {
  for (const NodeId n : rec.nodes) {
    Node& node = nodes_.at(n);
    if (node.state == NodeState::kDown) continue;  // failed underneath us
    auto& rj = node.running_jobs;
    const auto it = std::find(rj.begin(), rj.end(), rec.id);
    if (it == rj.end()) continue;
    rj.erase(it);
    node.allocated -= rec.spec.tres_per_node;
    if (rj.empty()) {
      node.allocated = TresVector{};
      if (draining_[n]) {
        // Maintenance or failure hand-over: the node leaves service
        // instead of going back to the pool.
        node.state = NodeState::kDown;
      } else {
        node.state = NodeState::kIdle;
        last_freed_[n] = sim_.now();
      }
    }
    refresh_node(n);
    // Claims complete per victim job in victim_ended.
  }
}

// --- TRES-mode scheduling ---------------------------------------------------

void Slurmctld::build_reservation_deadlines(
    std::vector<sim::SimTime>& out) const {
  out.assign(nodes_.size(), sim::SimTime::max());
  if (reservations_.empty()) return;
  const sim::SimTime now = sim_.now();
  for (const Reservation& r : reservations_) {
    if (r.end <= now) continue;
    const sim::SimTime from = std::max(r.start, now);
    for (const NodeId n : r.nodes) out[n] = std::min(out[n], from);
  }
}

bool Slurmctld::reservation_allows(
    const std::vector<sim::SimTime>& res_next_start, NodeId node,
    sim::SimTime limit_plus_grace) const {
  return res_next_start[node] == sim::SimTime::max() ||
         sim_.now() + limit_plus_grace <= res_next_start[node];
}

void Slurmctld::tres_pass(bool periodic) {
  std::vector<sim::SimTime>& res_next = res_deadline_scratch_;
  build_reservation_deadlines(res_next);

  // Phase 1: HPC tiers, highest first, strict priority order with EASY
  // backfill: once the head job of a tier is blocked, later jobs may
  // start only if they end before its shadow time.
  for (auto& [tier, queue] : pending_) {
    if (tier == 0) break;  // pilots handled in phase 2
    std::vector<QueueEntry>& still_pending = still_pending_scratch_;
    still_pending.clear();
    still_pending.reserve(queue.size());
    sim::SimTime shadow = sim::SimTime::max();
    bool head_blocked = false;
    std::size_t examined = 0;
    for (const QueueEntry& entry : queue) {
      JobRecord& rec = record(entry.id);
      if (examined++ >= config_.backfill_depth) {
        still_pending.push_back(entry);
        continue;
      }
      if (try_start_tres(rec, res_next, shadow)) continue;
      if (!head_blocked) {
        head_blocked = true;
        shadow = tres_shadow_time(rec, res_next);
      }
      still_pending.push_back(entry);
    }
    queue.swap(still_pending);
  }

  // Phase 2: pilots pack into whatever TRES is left — including partial
  // nodes already running prime HPC work (fractional-node harvesting).
  place_pilots_tres(res_next, periodic);
}

bool Slurmctld::try_start_tres(JobRecord& rec,
                               const std::vector<sim::SimTime>& res_next_start,
                               sim::SimTime shadow) {
  const sim::SimTime now = sim_.now();
  const bool is_var = rec.spec.time_min > sim::SimTime::zero();
  const sim::SimTime limit = is_var ? rec.spec.time_min : rec.spec.time_limit;
  const Partition& part = partition_of(rec);
  const sim::SimTime fence = limit + part.grace_time;
  // EASY legality: backfilled jobs must end before the head job's shadow.
  if (shadow != sim::SimTime::max() && now + limit > shadow) return false;

  const TresVector want = rec.spec.tres_per_node;

  const auto node_usable = [&](const Node& node) {
    return node.state != NodeState::kDown && !draining_[node.id] &&
           node_claims_[node.id] == 0 &&
           reservation_allows(res_next_start, node.id, fence);
  };

  // Nodes whose free TRES fits right now, best-fit first (least free
  // cpus): partial nodes fill up before idle nodes are broken open,
  // keeping whole-node holes for multi-node jobs and cold pilots.
  std::vector<std::pair<std::uint64_t, NodeId>>& cand = tres_cand_scratch_;
  cand.clear();
  for (const Node& node : nodes_) {
    if (!node_usable(node)) continue;
    const TresVector free = node.capacity - node.allocated;
    if (!want.fits_within(free)) continue;
    cand.emplace_back((std::uint64_t{free.cpus} << 32) | node.id, node.id);
  }
  std::sort(cand.begin(), cand.end());
  std::vector<NodeId>& chosen = chosen_scratch_;
  chosen.clear();
  for (const auto& [key, n] : cand) {
    if (chosen.size() == rec.spec.num_nodes) break;
    chosen.push_back(n);
  }

  // Scratch, like `chosen`: the victim callbacks in claim() can end jobs
  // and request a pass, but never run one synchronously.
  std::vector<JobId>& victims = victim_scratch_;
  victims.clear();
  if (chosen.size() < rec.spec.num_nodes) {
    // QOS preemption: complete the allocation on nodes where evicting
    // strictly-lower-tier preemptible jobs frees enough TRES. Lowest
    // tier dies first; youngest first within a tier (least accumulated
    // serving time lost, as in the legacy victim order).
    std::vector<TresVictim>& evict = tres_evict_scratch_;
    for (const Node& node : nodes_) {
      if (chosen.size() == rec.spec.num_nodes) break;
      if (!node_usable(node)) continue;
      TresVector freeable = node.capacity - node.allocated;
      if (want.fits_within(freeable)) continue;  // already in `chosen`
      evict.clear();
      for (const JobId jid : node.running_jobs) {
        const JobRecord& v = record(jid);
        if (!v.preemptible || !v.is_active()) continue;
        if (v.preempt_tier >= rec.preempt_tier) continue;
        evict.push_back({v.preempt_tier, v.start_time, jid, v.spec.tres_per_node});
      }
      std::sort(evict.begin(), evict.end(),
                [](const TresVictim& a, const TresVictim& b) {
                  if (a.tier != b.tier) return a.tier < b.tier;
                  if (a.start != b.start) return a.start > b.start;
                  return a.id > b.id;
                });
      std::size_t used = 0;
      for (const TresVictim& v : evict) {
        if (want.fits_within(freeable)) break;
        freeable += v.tres;
        ++used;
      }
      if (!want.fits_within(freeable)) continue;
      chosen.push_back(node.id);
      for (std::size_t i = 0; i < used; ++i) victims.push_back(evict[i].id);
    }
    if (chosen.size() < rec.spec.num_nodes) return false;
    // A multi-node victim can be credited to several chosen nodes.
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  }

  // Variable-length jobs: size into the gap before the earliest upcoming
  // reservation window on the chosen nodes (the SIGKILL deadline must
  // clear the window, hence the grace subtraction).
  sim::SimTime granted = rec.spec.time_limit;
  if (is_var) {
    sim::SimTime horizon = sim::SimTime::max();
    for (const NodeId n : chosen)
      horizon = std::min(horizon, res_next_start[n]);
    if (horizon != sim::SimTime::max())
      granted = fit_to_hole(rec.spec, horizon - now - part.grace_time);
  }

  if (victims.empty()) {
    launch(rec, std::move(chosen), granted);
    return true;
  }

  claim(rec, chosen, granted, victims);
  return true;
}

sim::SimTime Slurmctld::tres_shadow_time(
    const JobRecord& rec, const std::vector<sim::SimTime>& res_next_start) {
  const sim::SimTime now = sim_.now();
  const bool is_var = rec.spec.time_min > sim::SimTime::zero();
  const sim::SimTime limit = is_var ? rec.spec.time_min : rec.spec.time_limit;
  const sim::SimTime fence = limit + partition_of(rec).grace_time;
  const TresVector want = rec.spec.tres_per_node;

  // Per-node earliest fit time: walk the node's jobs by expected end,
  // accumulating frees until the request fits. Planning free-TRES only
  // grows over time, so the walk is exact on declared limits.
  std::vector<std::pair<sim::SimTime, NodeId>>& fits = shadow_fits_scratch_;
  std::vector<std::pair<sim::SimTime, TresVector>>& ends = shadow_ends_scratch_;
  fits.clear();
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kDown || draining_[node.id]) continue;
    if (node_claims_[node.id] != 0) continue;
    if (!reservation_allows(res_next_start, node.id, fence)) continue;
    TresVector free = node.capacity - node.allocated;
    if (want.fits_within(free)) {
      fits.emplace_back(now, node.id);
      continue;
    }
    ends.clear();
    for (const JobId jid : node.running_jobs) {
      const JobRecord& j = record(jid);
      sim::SimTime expected = j.expected_end();
      if (j.state == JobState::kCompleting)
        expected = std::min(expected, j.end_time);
      ends.emplace_back(std::max(expected, now), j.spec.tres_per_node);
    }
    std::sort(ends.begin(), ends.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [end, tres] : ends) {
      free += tres;
      if (want.fits_within(free)) {
        fits.emplace_back(end, node.id);
        break;
      }
    }
  }
  if (fits.size() < rec.spec.num_nodes) return sim::SimTime::max();
  std::nth_element(fits.begin(), fits.begin() + (rec.spec.num_nodes - 1),
                   fits.end());
  const sim::SimTime shadow = fits[rec.spec.num_nodes - 1].first;
  if (shadow > now + kBackfillWindow) return sim::SimTime::max();
  return std::max(shadow, now);
}

void Slurmctld::place_pilots_tres(
    const std::vector<sim::SimTime>& res_next_start, bool periodic) {
  const auto tier0 = pending_.find(0);
  if (tier0 == pending_.end() || tier0->second.empty()) return;
  auto& queue = tier0->second;

  const sim::SimTime now = sim_.now();
  const bool var_allowed = open_var_pass(periodic);

  // Candidate order: most free cpus first (whole idle nodes before
  // partial ones), coldest first within a level — the fractional-
  // harvesting analogue of the legacy cold-first pilot policy.
  std::vector<NodeId>& order = cold_first_scratch_;
  order.clear();
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kDown || draining_[node.id]) continue;
    if (node_claims_[node.id] != 0) continue;
    if ((node.capacity - node.allocated).is_zero()) continue;
    // The fresh-idle gate only guards fully idle nodes: partial nodes
    // are already pinned down by their HPC resident.
    if (node.state == NodeState::kIdle &&
        now - last_freed_[node.id] < config_.pilot_min_idle) {
      continue;
    }
    order.push_back(node.id);
  }
  std::sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
    const std::uint32_t fa = nodes_[a].capacity.cpus - nodes_[a].allocated.cpus;
    const std::uint32_t fb = nodes_[b].capacity.cpus - nodes_[b].allocated.cpus;
    if (fa != fb) return fa > fb;
    if (last_freed_[a] != last_freed_[b]) return last_freed_[a] < last_freed_[b];
    return a < b;
  });

  for (const NodeId nid : order) {
    if (queue.empty()) break;
    Node& node = nodes_[nid];
    bool progress = true;
    while (progress && !queue.empty()) {
      progress = false;
      const TresVector free = node.capacity - node.allocated;
      if (free.is_zero()) break;
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        JobRecord& rec = record(it->id);
        assert(rec.spec.num_nodes == 1 &&
               "tier-0 pilots are single-node by design");
        const bool is_var = rec.spec.time_min > sim::SimTime::zero();
        if (is_var && !var_allowed) continue;
        if (!rec.spec.tres_per_node.fits_within(free)) continue;
        const Partition& part = partition_of(rec);
        // Fixed pilots need their whole declared limit (plus grace) to
        // clear any upcoming window; variable ones shrink into the gap.
        const sim::SimTime feas =
            (is_var ? rec.spec.time_min : rec.spec.time_limit) +
            part.grace_time;
        if (!reservation_allows(res_next_start, nid, feas)) continue;
        sim::SimTime granted = rec.spec.time_limit;
        if (is_var && res_next_start[nid] != sim::SimTime::max())
          granted = fit_to_hole(rec.spec,
                                res_next_start[nid] - now - part.grace_time);
        queue.erase(it);
        launch(rec, {nid}, granted);
        progress = true;
        break;
      }
    }
  }
}

// --- Claims ------------------------------------------------------------------

void Slurmctld::claim(JobRecord& rec, const std::vector<NodeId>& nodes,
                      sim::SimTime granted_limit,
                      const std::vector<JobId>& victims) {
  PendingLaunch pl;
  pl.id = rec.id;
  pl.nodes = nodes;
  pl.granted_limit = granted_limit;
  pl.victims_left = victims.size();
  for (const NodeId n : nodes) {
    assert(node_claims_[n] == 0 && "a node has at most one claimant");
    node_claims_[n] = rec.id;
  }
  for (const JobId v : victims) victim_claims_.emplace(v, rec.id);
  pending_launches_.push_back(std::move(pl));
  notify_job(JobEventKind::kClaimed, rec);

  for (const JobId v : victims) {
    JobRecord& victim = record(v);
    if (victim.state == JobState::kRunning)
      begin_grace(victim, EndReason::kPreempted);
    // kCompleting victims are already draining; the claim waits for them.
  }
}

void Slurmctld::victim_ended(JobId victim) {
  // Looked up afresh per claimant: a launch below can re-enter through
  // job callbacks and drop other claims.
  for (auto claim = victim_claims_.find(victim); claim != victim_claims_.end();
       claim = victim_claims_.find(victim)) {
    const JobId claimant = claim->second;
    victim_claims_.erase(claim);
    const auto plit =
        std::find_if(pending_launches_.begin(), pending_launches_.end(),
                     [claimant](const PendingLaunch& p) {
                       return p.id == claimant;
                     });
    if (plit == pending_launches_.end()) continue;
    assert(plit->victims_left > 0);
    if (--plit->victims_left != 0) continue;

    PendingLaunch pl = std::move(*plit);
    pending_launches_.erase(plit);
    for (const NodeId n : pl.nodes) node_claims_[n] = 0;
    JobRecord& rec = record(pl.id);

    // Re-check the world: a reservation window, drain or node failure may
    // have closed in while the victims drained.
    build_reservation_deadlines(res_deadline_scratch_);
    const Partition& part = partition_of(rec);
    const sim::SimTime fence = pl.granted_limit + part.grace_time;
    bool ok = true;
    for (const NodeId n : pl.nodes) {
      const Node& node = nodes_[n];
      if (node.state == NodeState::kDown || draining_[n] ||
          !reservation_allows(res_deadline_scratch_, n, fence) ||
          !rec.spec.tres_per_node.fits_within(node.capacity - node.allocated)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      rec.state = JobState::kPending;
      enqueue_pending(rec.priority_tier, rec);
      request_schedule();
      continue;
    }
    launch(rec, std::move(pl.nodes), pl.granted_limit);
  }
}

void Slurmctld::drop_claim(JobId claimant) {
  for (auto it = pending_launches_.begin(); it != pending_launches_.end();
       ++it) {
    if (it->id != claimant) continue;
    for (const NodeId n : it->nodes) node_claims_[n] = 0;
    pending_launches_.erase(it);
    break;
  }
  for (auto it = victim_claims_.begin(); it != victim_claims_.end();) {
    it = it->second == claimant ? victim_claims_.erase(it) : std::next(it);
  }
}

void Slurmctld::requeue_claim_on(NodeId id) {
  const JobId claimant = node_claims_[id];
  if (claimant == 0) return;
  drop_claim(claimant);
  JobRecord& rec = record(claimant);
  rec.state = JobState::kPending;
  enqueue_pending(rec.priority_tier, rec);
}

// --- Reservations -----------------------------------------------------------

void Slurmctld::add_reservation(Reservation r) {
  if (!tres_on_)
    throw std::invalid_argument(
        "Slurmctld::add_reservation: requires fidelity.tres_mode");
  if (r.end <= r.start)
    throw std::invalid_argument("Slurmctld::add_reservation: empty window");
  for (const NodeId n : r.nodes) {
    if (n >= nodes_.size())
      throw std::invalid_argument("Slurmctld::add_reservation: bad node id");
  }
  const std::size_t index = reservations_.size();
  reservations_.push_back(std::move(r));
  const Reservation& res = reservations_.back();
  const sim::SimTime now = sim_.now();
  if (res.end <= now) return;  // already over; keep for the record only
  sim_.at(std::max(res.start, now),
          [this, index] { reservation_window_begin(index); });
  sim_.at(res.end, [this, index] { reservation_window_end(index); });
}

void Slurmctld::reservation_window_begin(std::size_t index) {
  const Reservation res = reservations_[index];  // copy: callbacks re-enter
  for (const NodeId id : res.nodes) {
    Node& node = nodes_.at(id);
    if (node.state == NodeState::kDown) continue;
    draining_[id] = true;
    requeue_claim_on(id);
    if (node.state == NodeState::kIdle) {
      node.state = NodeState::kDown;
      refresh_node(id);
      continue;
    }
    // Jobs still on the node (the reservation was registered after they
    // launched): preempt with the partition grace. Completing jobs are
    // already on their way out.
    std::vector<JobId> doomed = node.running_jobs;
    for (const JobId jid : doomed) {
      JobRecord& rec = record(jid);
      if (rec.state == JobState::kRunning)
        begin_grace(rec, EndReason::kPreempted);
    }
  }
}

void Slurmctld::reservation_window_end(std::size_t index) {
  const Reservation res = reservations_[index];
  const sim::SimTime now = sim_.now();
  for (const NodeId id : res.nodes) {
    // Another still-open window may cover the node; stay out if so.
    bool still_reserved = false;
    for (std::size_t i = 0; i < reservations_.size(); ++i) {
      if (i == index) continue;
      const Reservation& other = reservations_[i];
      if (other.start <= now && now < other.end &&
          std::find(other.nodes.begin(), other.nodes.end(), id) !=
              other.nodes.end()) {
        still_reserved = true;
        break;
      }
    }
    if (!still_reserved) set_node_up(id);
  }
}

// --- QOS --------------------------------------------------------------------

const Qos* Slurmctld::find_qos(const std::string& name) const {
  if (name.empty() || !qos_on_) return nullptr;
  const auto it = qos_.find(name);
  return it == qos_.end() ? nullptr : &it->second;
}

// --- Fidelity introspection -------------------------------------------------

TresVector Slurmctld::node_free(NodeId id) const {
  const Node& node = nodes_.at(id);
  return node.capacity - node.allocated;
}

Slurmctld::TresTotals Slurmctld::tres_totals() const {
  TresTotals t;
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kDown) continue;
    t.capacity += node.capacity;
    for (const JobId jid : node.running_jobs) {
      const JobRecord& rec = record(jid);
      if (rec.priority_tier == 0) {
        t.pilot += rec.spec.tres_per_node;
      } else {
        t.hpc += rec.spec.tres_per_node;
      }
    }
  }
  return t;
}

void Slurmctld::refresh_node(NodeId n) {
  const Node& node = nodes_[n];
  NodeSummary s;
  switch (node.state) {
    case NodeState::kDown: s.state = ObservedNodeState::kDown; break;
    case NodeState::kIdle: s.state = ObservedNodeState::kIdle; break;
    case NodeState::kAllocated: {
      // Prime HPC work dominates the observed role: the paper's sinfo
      // perspective reports a shared node as busy with HPC.
      s.state = ObservedNodeState::kPilot;
      s.preempt_tier = std::numeric_limits<std::int32_t>::min();
      for (const JobId jid : node.running_jobs) {
        const JobRecord& rec = record(jid);
        sim::SimTime expected = rec.expected_end();
        if (rec.state == JobState::kCompleting)
          expected = std::min(expected, rec.end_time);
        s.free_at = std::max(s.free_at, expected);
        s.preempt_tier = rec.preemptible
                             ? std::max(s.preempt_tier, rec.preempt_tier)
                             : kNotPreemptible;
        if (rec.priority_tier != 0) s.state = ObservedNodeState::kHpc;
      }
      if (node.running_jobs.size() == 1) {
        const JobRecord& only = record(node.running_jobs.front());
        if (only.preemptible && only.priority_tier == 0 &&
            only.state == JobState::kRunning)
          s.pilot_start = only.start_time;
      }
      break;
    }
  }

  // The pass orders: idle nodes most recently freed first, pilots
  // youngest first, ties by id. A node leaves an order by the key it
  // entered with: its last_freed_ only changes while it is not idle, and
  // its summary is replaced only after it has left.
  const auto by_freed = [this](NodeId a, NodeId b) {
    if (last_freed_[a] != last_freed_[b]) return last_freed_[a] > last_freed_[b];
    return a < b;
  };
  const auto by_age = [this](NodeId a, NodeId b) {
    const sim::SimTime sa = summary_[a].pilot_start;
    const sim::SimTime sb = summary_[b].pilot_start;
    if (sa != sb) return sa > sb;
    return a < b;
  };
  const auto leave = [n](std::vector<NodeId>& order, auto before) {
    const auto it = std::lower_bound(order.begin(), order.end(), n, before);
    assert(it != order.end() && *it == n);
    order.erase(it);
  };
  const auto enter = [n](std::vector<NodeId>& order, auto before) {
    order.insert(std::lower_bound(order.begin(), order.end(), n, before), n);
  };
  const NodeSummary old = summary_[n];
  const bool was_idle = old.state == ObservedNodeState::kIdle;
  const bool is_idle = s.state == ObservedNodeState::kIdle;
  if (was_idle && !is_idle) leave(idle_order_, by_freed);
  if (old.pilot_start != s.pilot_start && old.pilot_start != sim::SimTime::max())
    leave(pilot_order_, by_age);
  summary_[n] = s;
  if (is_idle && !was_idle) enter(idle_order_, by_freed);
  if (old.pilot_start != s.pilot_start && s.pilot_start != sim::SimTime::max())
    enter(pilot_order_, by_age);
  if (s.state != old.state) announce(n);
}

void Slurmctld::announce(NodeId node) {
  if (node_observer_)
    node_observer_(NodeTransition{sim_.now(), node, observed_state(node)});
}

void Slurmctld::notify_job(JobEventKind kind, const JobRecord& rec,
                           sim::SimTime deadline, sim::SimTime grace,
                           EndReason reason) {
  if (!job_observer_) return;
  JobEvent ev;
  ev.when = sim_.now();
  ev.kind = kind;
  ev.id = rec.id;
  ev.deadline = deadline;
  ev.grace = grace;
  ev.reason = reason;
  ev.job = &rec;
  job_observer_(ev);
}

}  // namespace hpcwhisk::slurm
