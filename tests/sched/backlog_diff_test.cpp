// Differential test for BacklogLedger: seeded random histories of
// assign / move / release / forget_worker / find, checked after every
// step against a reference ledger kept in a std::map. Call ids arrive
// mostly ascending, as the controller assigns them, but a call may be
// charged again long after newer ones (a requeued call that restarts),
// and forget_worker drops charges out of id order.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hpcwhisk/sched/backlog.hpp"
#include "hpcwhisk/sim/rng.hpp"

namespace hpcwhisk::sched {
namespace {

class RefLedger {
 public:
  void assign(CallId call, WorkerId worker, std::int64_t cost,
              std::int64_t predicted) {
    const auto it = charges_.find(call);
    if (it != charges_.end()) {
      it->second.worker = worker;
      it->second.cost_ticks = cost;
      return;
    }
    charges_.emplace(call, BacklogLedger::Charge{worker, cost, predicted});
  }
  bool move(CallId call, WorkerId worker) {
    const auto it = charges_.find(call);
    if (it == charges_.end() || it->second.worker == worker) return false;
    it->second.worker = worker;
    return true;
  }
  bool release(CallId call, BacklogLedger::Charge* out) {
    const auto it = charges_.find(call);
    if (it == charges_.end()) return false;
    *out = it->second;
    charges_.erase(it);
    return true;
  }
  std::size_t forget_worker(WorkerId worker) {
    std::size_t n = 0;
    for (auto it = charges_.begin(); it != charges_.end();) {
      if (it->second.worker == worker) {
        it = charges_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }
  std::int64_t backlog(WorkerId worker) const {
    std::int64_t sum = 0;
    for (const auto& [id, c] : charges_)
      if (c.worker == worker) sum += c.cost_ticks;
    return sum;
  }
  std::int64_t total() const {
    std::int64_t sum = 0;
    for (const auto& [id, c] : charges_) sum += c.cost_ticks;
    return sum;
  }
  const std::map<CallId, BacklogLedger::Charge>& charges() const {
    return charges_;
  }

 private:
  std::map<CallId, BacklogLedger::Charge> charges_;
};

void expect_same_charge(const BacklogLedger::Charge* got,
                        const BacklogLedger::Charge* want, CallId call) {
  ASSERT_EQ(got == nullptr, want == nullptr) << "call " << call;
  if (got == nullptr) return;
  EXPECT_EQ(got->worker, want->worker) << "call " << call;
  EXPECT_EQ(got->cost_ticks, want->cost_ticks) << "call " << call;
  EXPECT_EQ(got->predicted_ticks, want->predicted_ticks) << "call " << call;
}

TEST(BacklogLedger, MatchesAnOrderedMapReferenceOverRandomHistories) {
  constexpr WorkerId kWorkers = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    BacklogLedger ledger;
    RefLedger ref;
    CallId next = static_cast<CallId>(rng.uniform_int(0, 1000));
    // A call id among the recent ones, or one never used yet.
    const auto pick = [&]() -> CallId {
      const std::int64_t back = rng.uniform_int(-2, 300);
      if (back < 0) return next + static_cast<CallId>(-back);
      const auto k = static_cast<CallId>(back);
      return k < next ? next - 1 - k : next;
    };
    for (int step = 0; step < 3000; ++step) {
      const auto worker = static_cast<WorkerId>(rng.uniform_int(0, kWorkers - 1));
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 35) {
        // New calls arrive in ascending order, sometimes past a gap.
        next += static_cast<CallId>(rng.uniform_int(0, 3));
        const std::int64_t cost = rng.uniform_int(1, 5000);
        ledger.assign(next, worker, cost, cost / 2);
        ref.assign(next, worker, cost, cost / 2);
        ++next;
      } else if (op < 45) {
        const CallId call = pick();
        const std::int64_t cost = rng.uniform_int(1, 5000);
        ledger.assign(call, worker, cost, cost + 1);
        ref.assign(call, worker, cost, cost + 1);
      } else if (op < 62) {
        const CallId call = pick();
        EXPECT_EQ(ledger.move(call, worker), ref.move(call, worker));
      } else if (op < 92) {
        const CallId call = pick();
        BacklogLedger::Charge got, want;
        const bool had = ref.release(call, &want);
        ASSERT_EQ(ledger.release(call, &got), had) << "call " << call;
        if (had) expect_same_charge(&got, &want, call);
      } else if (op < 94) {
        EXPECT_EQ(ledger.forget_worker(worker), ref.forget_worker(worker));
      } else {
        const CallId call = pick();
        const auto it = ref.charges().find(call);
        expect_same_charge(ledger.find(call),
                           it == ref.charges().end() ? nullptr : &it->second,
                           call);
      }
      ASSERT_EQ(ledger.total(), ref.total()) << "step " << step;
      ASSERT_EQ(ledger.charge_count(), ref.charges().size()) << "step " << step;
      for (WorkerId w = 0; w < kWorkers; ++w)
        ASSERT_EQ(ledger.backlog(w), ref.backlog(w)) << "step " << step;
    }
    for (const auto& [call, charge] : ref.charges())
      expect_same_charge(ledger.find(call), &charge, call);
  }
}

}  // namespace
}  // namespace hpcwhisk::sched
