// The activation store: the 32-byte archive codec over edge values, a
// seeded store test against a plain vector of records, and the
// controller's handling of late and duplicate messages for archived ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/whisk/activation.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::SimTime;

constexpr std::int64_t kMaxOffset = ArchivedRecord::kMaxOffset;

ActivationRecord terminal_record() {
  ActivationRecord r;
  r.id = 7;
  r.state = ActivationState::kCompleted;
  r.function_index = 3;
  r.submit_time = SimTime::hours(2);
  r.first_start_time = r.submit_time + SimTime::millis(40);
  r.start_time = r.first_start_time;
  r.end_time = r.first_start_time + SimTime::millis(250);
  r.executed_by = 5;
  r.routed_to = 4;
  r.requeues = 1;
  return r;
}

/// Encodes `r`: a record that fits must decode to itself; one that does
/// not must be flagged and still carry its function index.
void expect_round_trip(const ActivationRecord& r, bool fits) {
  const ArchivedRecord a = ArchivedRecord::encode(r);
  EXPECT_EQ(a.exception(), !fits);
  EXPECT_EQ(a.function_index, r.function_index);
  if (fits) {
    EXPECT_EQ(a.decode(r.id), r);
  }
}

TEST(ArchivedRecord, RoundTripsEdgeValues) {
  static_assert(sizeof(ArchivedRecord) <= 32);
  expect_round_trip(terminal_record(), true);

  ActivationRecord zero;  // every time zero, never routed or executed
  zero.state = ActivationState::kRejected503;
  expect_round_trip(zero, true);
  zero.function_index = 0xFFFF'FFFFu;
  expect_round_trip(zero, true);

  ActivationRecord never_started = terminal_record();
  never_started.state = ActivationState::kTimedOut;
  never_started.first_start_time = never_started.start_time = SimTime::zero();
  never_started.executed_by = kNoInvoker;
  never_started.routed_to = kNoInvoker;
  expect_round_trip(never_started, true);

  ActivationRecord r = terminal_record();
  r.end_time = r.submit_time;  // a 503 ends at its submission
  expect_round_trip(r, true);

  for (const std::int64_t offset : {kMaxOffset, kMaxOffset + 1}) {
    r = terminal_record();
    r.first_start_time = r.start_time = r.submit_time + SimTime::micros(offset);
    r.end_time = r.first_start_time;
    expect_round_trip(r, offset <= kMaxOffset);
    r = terminal_record();
    r.end_time = r.submit_time + SimTime::micros(offset);
    expect_round_trip(r, offset <= kMaxOffset);
  }
  r = terminal_record();
  r.end_time = r.submit_time - SimTime::micros(1);  // before submission
  expect_round_trip(r, false);

  for (const std::uint32_t n : {254u, 255u, 256u}) {
    r = terminal_record();
    r.requeues = n;
    expect_round_trip(r, n <= ArchivedRecord::kMaxCounter);
    r = terminal_record();
    r.interruptions = n;
    expect_round_trip(r, n <= ArchivedRecord::kMaxCounter);
  }

  r = terminal_record();
  r.start_time = r.first_start_time + SimTime::seconds(3);  // restarted
  expect_round_trip(r, false);

  for (const ActivationState s :
       {ActivationState::kQueued, ActivationState::kRunning,
        ActivationState::kCompleted, ActivationState::kFailed,
        ActivationState::kTimedOut, ActivationState::kRejected503}) {
    for (const bool cold : {false, true}) {
      r = terminal_record();
      r.state = s;
      r.cold_start = cold;
      expect_round_trip(r, true);
    }
  }
}

// Random submits and lifecycle messages in random order, including
// duplicate and late ones for ids already archived, applied to the store
// as the controller applies them (an archived or terminal record takes
// no change) and to a plain vector. Fields are pushed past the codec's
// limits now and then, so archived exceptions occur too.
TEST(ActivationStore, MatchesAVectorOfRecordsUnderRandomLifecycles) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    ActivationStore store;
    std::vector<ActivationRecord> ref;
    std::vector<ActivationId> open;
    SimTime now = SimTime::seconds(1);

    // Applies `f` to record `id` in both, unless it is terminal; an id
    // below the base must then be terminal.
    const auto apply = [&](ActivationId id, auto&& f) {
      if (is_terminal(ref[id].state)) return;
      ASSERT_GE(id, store.base()) << "an open record was archived";
      f(ref[id]);
      f(store.live(id));
    };
    const auto finish = [&](ActivationState state) {
      return [&, state](ActivationRecord& r) {
        r.state = state;
        r.end_time = now;
      };
    };

    for (int step = 0; step < 9000; ++step) {
      now += SimTime::micros(rng.uniform_int(0, 2000));
      if (rng.bernoulli(0.002)) now += SimTime::micros(kMaxOffset);
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 30) {
        store.archive_terminal_prefix();
        const ActivationId first_open =
            open.empty() ? ref.size() : *std::min_element(open.begin(), open.end());
        ASSERT_LE(store.base(), first_open);
        ASSERT_LT(first_open - store.base(), ActivationStore::kChunkSize);

        const ActivationId id = store.size();
        ActivationRecord r;
        r.id = id;
        r.function_index = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
        r.submit_time = now;
        if (rng.bernoulli(0.1)) {
          r.state = ActivationState::kRejected503;
          r.end_time = now;
        } else {
          r.routed_to = static_cast<InvokerId>(rng.uniform_int(0, 7));
          open.push_back(id);
        }
        store.emplace_back() = r;
        ref.push_back(r);
      } else {
        // Mostly a message for an open call; otherwise for any id, as a
        // duplicate or late delivery would be.
        ActivationId id;
        if (!open.empty() && rng.bernoulli(0.9)) {
          id = open[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
        } else if (!ref.empty()) {
          id = static_cast<ActivationId>(
              rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
        } else {
          continue;
        }
        const auto by = static_cast<InvokerId>(rng.uniform_int(0, 7));
        const bool cold = rng.bernoulli(0.3);
        if (op < 45) {  // started
          apply(id, [&](ActivationRecord& r) {
            r.state = ActivationState::kRunning;
            if (r.first_start_time == SimTime::zero()) r.first_start_time = now;
            r.start_time = now;
            r.executed_by = by;
            r.cold_start = cold;
          });
        } else if (op < 70) {
          apply(id, finish(ActivationState::kCompleted));
        } else if (op < 77) {
          apply(id, finish(ActivationState::kFailed));
        } else if (op < 84) {
          apply(id, finish(ActivationState::kTimedOut));
        } else if (op < 90) {  // interrupted by a draining invoker
          apply(id, [&](ActivationRecord& r) {
            r.state = ActivationState::kQueued;
            ++r.interruptions;
          });
        } else {  // requeued, now and then in a burst past the codec
          const auto n = static_cast<std::uint32_t>(
              rng.bernoulli(0.05) ? rng.uniform_int(250, 300) : 1);
          apply(id, [&](ActivationRecord& r) { r.requeues += n; });
        }
        std::erase_if(open, [&](ActivationId a) {
          return is_terminal(ref[a].state);
        });
      }

      ASSERT_EQ(store.size(), ref.size());
      std::size_t k = 0;
      for (const ActivationRecord& r : store) {
        ASSERT_EQ(r, ref[k]) << "id " << k << " at step " << step;
        ++k;
      }
      ASSERT_EQ(k, ref.size());
      std::size_t exceptions = 0;
      for (ActivationId id = 0; id < store.base(); ++id) {
        ASSERT_TRUE(is_terminal(ref[id].state)) << "archived open id " << id;
        ASSERT_EQ(store[id], ref[id]) << "id " << id;
        ASSERT_EQ(store.function_index(id), ref[id].function_index);
        if (ArchivedRecord::encode(ref[id]).exception()) ++exceptions;
      }
      // Every archived id was encoded once: one exception entry each.
      ASSERT_EQ(store.exception_count(), exceptions);
    }
    EXPECT_GE(store.base(), 2 * ActivationStore::kChunkSize);
    EXPECT_GT(store.exception_count(), 0u);
  }
}

struct Fixture {
  sim::Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller{sim, broker, registry};

  Fixture() {
    registry.put(fixed_duration_function("fn", SimTime::millis(10)));
  }
};

// A duplicated or late message for an archived id finds it terminal: no
// transition, no counter, no requeue, and the invoker may not deliver it.
TEST(ActivationStore, ControllerIgnoresMessagesForArchivedIds) {
  Fixture f;
  const InvokerId inv = f.controller.register_invoker();
  f.sim.run_until(SimTime::seconds(1));
  const auto n = static_cast<ActivationId>(ActivationStore::kChunkSize);
  for (ActivationId id = 0; id < n; ++id) {
    ASSERT_TRUE(f.controller.submit("fn").accepted);
    f.controller.activation_started(id, inv, false);
    if (id % 3 == 0) {
      f.controller.activation_failed(id);
    } else {
      f.controller.activation_completed(id);
    }
  }
  ASSERT_TRUE(f.controller.submit("fn").accepted);
  ASSERT_EQ(f.controller.activations().base(), n);

  const Controller::Counters before = f.controller.counters();
  const std::size_t fast_lane = f.broker.fast_lane().size();
  for (const ActivationId id : {ActivationId{0}, ActivationId{1}, n - 1}) {
    const ActivationRecord rec = f.controller.activation(id);
    EXPECT_FALSE(f.controller.deliverable(id));
    f.controller.activation_started(id, inv, true);
    f.controller.activation_interrupted(id);
    mq::Message msg;
    msg.id = id;
    f.controller.requeue_to_fast_lane(msg);
    f.controller.activation_completed(id);
    f.controller.activation_failed(id);
    EXPECT_EQ(f.controller.activation(id), rec);
  }
  EXPECT_EQ(f.broker.fast_lane().size(), fast_lane);
  const Controller::Counters& after = f.controller.counters();
  EXPECT_EQ(after.completed, before.completed);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.interrupted, before.interrupted);
  // requeue_to_fast_lane counts only what it publishes.
  EXPECT_EQ(after.requeued, before.requeued);
  EXPECT_THROW((void)f.controller.activation(n + 1), std::out_of_range);
}

}  // namespace
}  // namespace hpcwhisk::whisk
