#pragma once
// Slurm-like centralized workload manager (slurmctld).
//
// Faithful to the mechanisms HPC-Whisk depends on:
//  * multifactor ordering: priority tier >> job priority >> submit time;
//  * EASY backfill on a per-node availability timeline built from
//    *declared* limits (slack between limit and runtime is what creates
//    the unpredictable idleness the paper harvests);
//  * PreemptMode=CANCEL: a higher-tier allocation may claim nodes held by
//    preemptible lower-tier jobs; victims get SIGTERM, a grace period,
//    then SIGKILL; the claimant starts once its nodes are free;
//  * variable-length sizing (--time-min/--time): the scheduler grants a
//    limit that fits the node's predicted availability hole, quantized to
//    the backfill slot (2 minutes on Prometheus);
//  * periodic backfill passes plus event-driven passes on job completion.
//
// Scheduling of tier-0 pilots supports two placement policies (an
// ablation in the benches): preempt-aware (faithful: place on any idle
// node, conflicts resolved by preemption) and hole-fitting (place only
// if the declared limit fits before the head-job reservation).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/slurm/job.hpp"
#include "hpcwhisk/slurm/node.hpp"
#include "hpcwhisk/slurm/partition.hpp"
#include "hpcwhisk/slurm/qos.hpp"
#include "hpcwhisk/slurm/reservation.hpp"
#include "hpcwhisk/slurm/reservation_horizon.hpp"
#include "hpcwhisk/slurm/tres.hpp"

namespace hpcwhisk::obs {
struct Observability;
}

namespace hpcwhisk::slurm {

/// Per-node observed-state transition, the ground-truth event stream that
/// the analysis module samples to reproduce the paper's perspectives.
struct NodeTransition {
  sim::SimTime when;
  NodeId node;
  ObservedNodeState state;
};

/// Job-lifecycle event stream, the scheduler-side ground truth consumed
/// by the SimCheck invariant suite (src/check). One event per decision:
/// a job is submitted, claims preempted nodes (kClaimed), launches on its
/// allocation, receives SIGTERM with a SIGKILL deadline, and ends.
enum class JobEventKind : std::uint8_t {
  kSubmitted,  ///< entered the pending queue
  kClaimed,    ///< scheduling decision made; waiting on preempted victims
  kLaunched,   ///< allocation started (record carries nodes + granted limit)
  kSigterm,    ///< grace window opened; `deadline`/`grace`/`reason` valid
  kEnded,      ///< left the system; `reason` valid
};

[[nodiscard]] const char* to_string(JobEventKind k);

struct JobEvent {
  sim::SimTime when;
  JobEventKind kind{JobEventKind::kSubmitted};
  JobId id{0};
  /// kSigterm: when SIGKILL fires and the grace actually granted (the
  /// partition grace, possibly truncated by fault injection).
  sim::SimTime deadline;
  sim::SimTime grace;
  /// kSigterm: why the grace window opened; kEnded: terminal reason.
  EndReason reason{EndReason::kCompleted};
  /// The full record at event time; valid only during the callback.
  const JobRecord* job{nullptr};
};

enum class PilotPlacement {
  kPreemptAware,  ///< faithful: start pilots on idle nodes regardless of
                  ///< future reservations; preemption resolves conflicts
  kHoleFitting,   ///< conservative: start a pilot only if its limit fits
                  ///< before the node's earliest reservation
};

/// Interval of the periodic scheduling/backfill pass.
inline constexpr sim::SimTime kSchedInterval = sim::SimTime::seconds(30);
/// Backfill look-ahead window (Prometheus: 120 minutes).
inline constexpr sim::SimTime kBackfillWindow = sim::SimTime::minutes(120);
/// Allocation slot: limits are quantized to this (Prometheus: 2 min).
inline constexpr sim::SimTime kSlot = sim::SimTime::minutes(2);

class Slurmctld {
 public:
  struct Config {
    std::uint32_t node_count{0};
    /// How many pending jobs each backfill pass examines per tier
    /// (Slurm's bf_max_job_test).
    std::size_t backfill_depth{200};
    /// How many blocked jobs get a future reservation per pass (Slurm's
    /// bf_max_job_test effectively bounds this; plain EASY uses 1).
    /// Reservations are what protect short idle holes from greedy
    /// backfill — and what bounds the holes pilots can use.
    std::size_t reservation_depth{16};
    /// Minimum gap between scheduling passes (Slurm's sched_min_interval
    /// / batched event scheduling). Event-driven pass requests arriving
    /// earlier are deferred, which is what leaves freed nodes visibly
    /// idle for a while even when fitting work is queued.
    sim::SimTime min_pass_gap{sim::SimTime::seconds(20)};
    PilotPlacement pilot_placement{PilotPlacement::kPreemptAware};
    /// Variable-length (time_min > 0) pilots are only considered during
    /// periodic passes, sized against the availability picture of the
    /// *previous* pass. This models the scheduling lag the paper blames
    /// for the var model's 68% (vs 84% bound) coverage (Sec. V-B2).
    ///
    /// Minimum spacing between passes that place variable-length jobs:
    /// sizing them (schedule at --time-min, try to extend) is the
    /// expensive scheduler path, so it runs much less often than plain
    /// backfill. This is the dominant source of the var model's
    /// coverage penalty.
    sim::SimTime var_pass_period{sim::SimTime::seconds(90)};
    /// A node must have been idle at least this long before a tier-0
    /// pilot may take it. Models the slow backfill cycle that places
    /// pilots on a busy production scheduler; the resulting small pool
    /// of fresh-idle nodes absorbs most HPC allocations, which is what
    /// lets pilots serve for minutes instead of seconds.
    sim::SimTime pilot_min_idle{sim::SimTime::zero()};
    /// Scheduler processing latency applied to each job launch
    /// (state propagation, prolog). Small but nonzero in production.
    sim::SimTime launch_latency{sim::SimTime::millis(200)};
    /// Optional trace/metrics sink; null disables all instrumentation.
    obs::Observability* obs{nullptr};

    /// Opt-in fidelity extensions (ROADMAP item 4). Everything here is
    /// default-off; with the defaults the scheduler's decision log is
    /// byte-identical to the pre-fidelity golden hashes.
    struct Fidelity {
      /// Per-TRES packing: nodes carry a TresVector capacity, jobs a
      /// per-node request, and several jobs (prime HPC work + pilots)
      /// can share one node. Switches scheduling to the TRES pass.
      bool tres_mode{false};
      /// Capacity of every node (required non-zero when tres_mode;
      /// legacy mode uses a one-cpu unit capacity instead).
      TresVector node_capacity{};
      /// Registered QOS levels; jobs reference them by JobSpec::qos.
      std::vector<Qos> qos{};
      /// Advance reservations active from t=0 (more can be added at
      /// runtime via add_reservation). TRES mode only.
      std::vector<Reservation> reservations{};
    };
    Fidelity fidelity{};
  };

  Slurmctld(sim::Simulation& simulation, Config config,
            std::vector<Partition> partitions);

  Slurmctld(const Slurmctld&) = delete;
  Slurmctld& operator=(const Slurmctld&) = delete;

  /// Submits a job; scheduling is attempted on the next pass (an
  /// event-driven pass is triggered immediately for fixed-length jobs).
  JobId submit(JobSpec spec);

  /// Cancels a pending or running job. Running jobs get SIGTERM + grace.
  /// Returns false if the job is unknown or already finished.
  bool cancel(JobId id);

  /// A running job announces it has exited on its own (e.g. a drained
  /// pilot exiting early inside its grace period). Frees nodes at once.
  void job_exited(JobId id);

  /// Failure injection: marks a node down, killing whatever ran there
  /// (no grace — models a hardware failure). No-op if already down.
  void set_node_down(NodeId id);
  /// Failure injection with a *truncated* grace: the running job gets
  /// SIGTERM now and SIGKILL after `grace` (instead of the partition's
  /// full grace) — a node dying with only seconds of warning. The node
  /// leaves service once the job is gone and stays down until
  /// set_node_up(). `grace` <= 0 degrades to set_node_down().
  void fail_node(NodeId id, sim::SimTime grace);
  /// Returns a down node to service (idle).
  void set_node_up(NodeId id);

  /// Operator maintenance: stop scheduling onto the node; once its
  /// current job ends (running jobs are NOT killed), the node goes down
  /// for maintenance. Idle nodes go down immediately.
  void drain_node(NodeId id);
  [[nodiscard]] bool is_draining(NodeId id) const;

  /// Registers an advance reservation / maintenance window (TRES mode).
  /// Windows starting in the past apply immediately; node ids must be
  /// valid and end must be after start.
  void add_reservation(Reservation r);

  // --- Introspection -----------------------------------------------------

  [[nodiscard]] const JobRecord& job(JobId id) const;
  [[nodiscard]] bool is_known(JobId id) const;
  /// Visits every job record in id order (status rendering, audits).
  void for_each_job(const std::function<void(const JobRecord&)>& fn) const;
  [[nodiscard]] std::size_t pending_count(const std::string& partition) const;
  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] ObservedNodeState observed_state(NodeId id) const;
  [[nodiscard]] std::vector<ObservedNodeState> observed_states() const;
  [[nodiscard]] std::size_t idle_node_count() const;

  /// All four observed-state counts in one allocation-free pass: the
  /// node-timeline sample of the time-series tier (idle + pilot is the
  /// forecastable idle-capacity signal of ROADMAP item 5).
  struct StateTotals {
    std::uint32_t idle{0};
    std::uint32_t hpc{0};
    std::uint32_t pilot{0};
    std::uint32_t down{0};
    [[nodiscard]] std::uint32_t available() const { return idle + pilot; }
  };
  [[nodiscard]] StateTotals state_totals() const;

  // --- Fidelity introspection (all cheap; meaningful in TRES mode) -------

  /// Currently unallocated TRES on `id` (legacy mode: one cpu if idle).
  [[nodiscard]] TresVector node_free(NodeId id) const;
  /// Cluster-wide TRES occupancy split by observed role.
  struct TresTotals {
    TresVector capacity;  ///< Σ capacity over non-down nodes
    TresVector hpc;       ///< Σ allocations held by tier>0 jobs
    TresVector pilot;     ///< Σ allocations held by tier-0 pilots
  };
  [[nodiscard]] TresTotals tres_totals() const;

  /// Ground-truth observer: invoked on every observed-state transition.
  /// The initial state of every node (idle at t=0) is not announced.
  void set_node_observer(std::function<void(const NodeTransition&)> cb) {
    node_observer_ = std::move(cb);
  }

  /// Job-lifecycle observer: invoked on every JobEvent, after the
  /// scheduler's own bookkeeping and before the job's user callbacks.
  /// One observer at a time; unset costs nothing.
  void set_job_observer(std::function<void(const JobEvent&)> cb) {
    job_observer_ = std::move(cb);
  }

  struct Counters {
    std::uint64_t submitted{0};
    std::uint64_t started{0};
    std::uint64_t completed{0};
    std::uint64_t timed_out{0};
    std::uint64_t preempted{0};
    std::uint64_t cancelled{0};
    std::uint64_t node_failures{0};
    std::uint64_t sched_passes{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Forces a full scheduling pass right now (tests/benches).
  void schedule_now();

  /// Availability timeline: for every node, when the scheduler expects it
  /// to be free (now for idle; expected_end for HPC jobs; `now` for nodes
  /// held only by preemptible lower-tier jobs when scheduling tier >= 1).
  struct Availability {
    std::vector<sim::SimTime> free_at;  // per node, for HPC planning
  };
  /// Rebuilds and returns the availability timeline for `tier`. Exposed
  /// for micro-benchmarks and tooling; scheduling passes reuse internal
  /// scratch buffers instead of calling this.
  [[nodiscard]] Availability availability_snapshot(std::int32_t tier) const;

 private:
  /// Pending-queue entry, kept sorted by (priority desc, id asc) at
  /// insertion so scheduling passes never sort.
  struct QueueEntry {
    std::int64_t priority{0};
    JobId id{0};
    friend bool operator<(const QueueEntry& a, const QueueEntry& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.id < b.id;
    }
  };
  void enqueue_pending(std::int32_t tier, const JobRecord& rec);
  void remove_pending(std::int32_t tier, JobId id);

  /// Node lists cached for the duration of one scheduling pass; updated
  /// in place as the pass launches jobs and claims nodes.
  struct PassCache {
    std::vector<NodeId> idle;  ///< idle, unclaimed; most recently freed first
    /// Running a preemptible tier-0 job; youngest pilot first.
    std::vector<NodeId> pilot_held;
  };

  // Scheduling pipeline.
  void request_schedule();       // coalesced event-driven pass
  void run_sched_pass(bool periodic);
  /// Rebuilds the availability timeline for `tier` into `out`, reusing
  /// its capacity. Called once per (pass, tier); the scheduler then
  /// advances `out.free_at` in place as its planning timeline, instead
  /// of ever copying or reallocating full per-node vectors.
  void build_availability_into(std::int32_t tier, Availability& out) const;

  /// Attempts to start `rec` now, preempting lower tiers if allowed.
  /// Returns true if the job was launched or is waiting on preempted
  /// nodes (counted as scheduled either way).
  bool try_start_hpc(JobRecord& rec, PassCache& cache,
                     const std::vector<sim::SimTime>& reserved_until);

  /// Var-pass gate shared by both pilot placements: whether this pass
  /// may start variable-length pilots. Only a periodic pass at least
  /// var_pass_period after the last admitted one may, and admitting it
  /// restarts that period.
  bool open_var_pass(bool periodic);
  /// Pilot placement pass over currently idle nodes.
  void place_pilots(PassCache& cache,
                    const std::vector<sim::SimTime>& reserved_from,
                    bool periodic);

  void launch(JobRecord& rec, std::vector<NodeId> nodes,
              sim::SimTime granted_limit);
  /// Starts the SIGTERM→SIGKILL grace window attributing it to `reason`.
  /// `grace_override` (when not max()) truncates the partition's grace —
  /// the fault-injection path for nodes failing with little warning.
  void begin_grace(JobRecord& rec, EndReason reason,
                   sim::SimTime grace_override = sim::SimTime::max());
  void finish_job(JobRecord& rec, EndReason reason);
  void free_nodes(const JobRecord& rec);
  void announce(NodeId node);
  void notify_job(JobEventKind kind, const JobRecord& rec,
                  sim::SimTime deadline = sim::SimTime::zero(),
                  sim::SimTime grace = sim::SimTime::zero(),
                  EndReason reason = EndReason::kCompleted);
  [[nodiscard]] const Partition& partition_of(const JobRecord& rec) const;

  /// Jobs whose allocation is decided but whose nodes are still draining
  /// preempted victims; launched when the last victim leaves.
  struct PendingLaunch {
    JobId id;
    std::vector<NodeId> nodes;
    sim::SimTime granted_limit;
    /// Victim jobs still to end (decremented by victim_ended).
    std::size_t victims_left{0};
  };
  /// Parks `rec` on `nodes` and sends `victims` SIGTERM; the claim
  /// completes in victim_ended once the last of them has ended.
  void claim(JobRecord& rec, const std::vector<NodeId>& nodes,
             sim::SimTime granted_limit, const std::vector<JobId>& victims);
  /// A claimed victim ended: decrement every waiting claimant, launching
  /// those now complete, or requeueing them if a reservation, drain or
  /// failure closed in on their nodes meanwhile.
  void victim_ended(JobId victim);
  void drop_claim(JobId claimant);
  /// Requeues the claimant holding `id`, if any (node lost to a failure
  /// or a reservation window).
  void requeue_claim_on(NodeId id);

  // --- TRES-mode scheduling pass -----------------------------------------
  // Node and claim bookkeeping is shared; only the pass policy differs:
  // EASY shadow, best-fit packing and QOS victims here, versus
  // multi-reservation backfill, LIFO idle nodes and youngest-pilot
  // victims in run_sched_pass.
  void run_sched_pass_tres(bool periodic);
  bool try_start_tres(JobRecord& rec,
                      const std::vector<sim::SimTime>& res_next_start,
                      sim::SimTime shadow);
  /// EASY shadow time for the head blocked job: the earliest instant at
  /// which `rec`'s full nodes×TRES request fits on the planning
  /// timeline. max() when beyond the backfill window (unconstrained).
  [[nodiscard]] sim::SimTime tres_shadow_time(
      const JobRecord& rec, const std::vector<sim::SimTime>& res_next_start);
  void place_pilots_tres(const std::vector<sim::SimTime>& res_next_start,
                         bool periodic);
  /// Fills per-node "next reservation window opens at" (max() if none).
  void build_reservation_deadlines(std::vector<sim::SimTime>& out) const;
  [[nodiscard]] bool reservation_allows(
      const std::vector<sim::SimTime>& res_next_start, NodeId node,
      sim::SimTime limit_plus_grace) const;
  void reservation_window_begin(std::size_t index);
  void reservation_window_end(std::size_t index);

  // --- QOS -----------------------------------------------------------------
  [[nodiscard]] const Qos* find_qos(const std::string& name) const;


  sim::Simulation& sim_;
  Config config_;
  std::unordered_map<std::string, Partition> partitions_;
  std::vector<Node> nodes_;
  std::unordered_map<JobId, JobRecord> jobs_;
  /// Pending jobs per tier (descending tier order via std::greater);
  /// each queue kept sorted by (priority desc, id asc).
  std::map<std::int32_t, std::vector<QueueEntry>, std::greater<>> pending_;
  std::unordered_map<JobId, sim::EventId> end_events_;
  std::unordered_map<JobId, sim::EventId> kill_events_;
  std::vector<PendingLaunch> pending_launches_;
  /// When each node last became idle (drives LIFO reuse: recently freed
  /// nodes are preferred, matching Slurm's stable node-weight ordering
  /// and producing the heavy-tailed per-node idleness of Fig. 1b).
  std::vector<sim::SimTime> last_freed_;
  /// Nodes marked for maintenance: no new jobs; down when freed.
  std::vector<bool> draining_;
  std::unordered_map<NodeId, JobId> node_claims_;  // node -> waiting job
  std::function<void(const NodeTransition&)> node_observer_;
  std::function<void(const JobEvent&)> job_observer_;
  JobId next_job_id_{1};
  bool pass_requested_{false};
  sim::SimTime last_pass_{sim::SimTime::zero() - sim::SimTime::hours(1)};
  sim::SimTime last_var_pass_{sim::SimTime::zero() - sim::SimTime::hours(1)};
  Counters counters_;
  /// Availability picture of the last periodic pass: variable-length
  /// pilots are sized against it (see Config::var_pass_period).
  std::vector<sim::SimTime> last_pass_reserved_from_;

  // --- Per-pass scratch buffers ------------------------------------------
  // The scheduler pass runs every <=30 s simulated over thousands of
  // nodes; all working vectors live here so steady-state passes perform
  // no heap allocation at all (capacities stabilize after the first few
  // passes). Only valid for the duration of one pass.
  Availability avail_scratch_;                  ///< per-tier timeline cache
  PassCache pass_cache_;
  std::vector<sim::SimTime> reserved_from_scratch_;
  ReservationHorizon horizon_;  ///< backfill bookings, one heap per tier
  std::vector<QueueEntry> still_pending_scratch_;
  std::vector<NodeId> chosen_scratch_;
  std::vector<JobId> victim_scratch_;
  std::vector<std::size_t> taken_idle_scratch_;
  std::vector<std::size_t> taken_pilot_scratch_;
  std::vector<sim::SimTime> pilot_start_scratch_;  ///< per node, pilot_held only
  std::vector<NodeId> cold_first_scratch_;
  std::vector<NodeId> unused_nodes_scratch_;

  // --- Fidelity state ----------------------------------------------------
  bool tres_on_{false};
  bool qos_on_{false};
  std::unordered_map<std::string, Qos> qos_;
  std::vector<Reservation> reservations_;
  /// Victim job -> claimant(s) waiting on it. A multi-node victim can be
  /// claimed by several claimants at once.
  std::unordered_multimap<JobId, JobId> victim_claims_;
  /// Pass scratch: per-node next-reservation-start and node candidates.
  std::vector<sim::SimTime> res_deadline_scratch_;
  std::vector<std::pair<std::uint64_t, NodeId>> tres_cand_scratch_;
  /// try_start_tres: the preemptible jobs on one node, in eviction order.
  struct TresVictim {
    std::int32_t tier;
    sim::SimTime start;
    JobId id;
    TresVector tres;
  };
  std::vector<TresVictim> tres_evict_scratch_;
  /// tres_shadow_time: per-node earliest fit, and one node's job ends.
  std::vector<std::pair<sim::SimTime, NodeId>> shadow_fits_scratch_;
  std::vector<std::pair<sim::SimTime, TresVector>> shadow_ends_scratch_;
};

}  // namespace hpcwhisk::slurm
