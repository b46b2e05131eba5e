// ConservationAudit's violation report: an audit attached mid-run has
// seen no transition for the calls that ended before it, and reports
// each of them, in id order, next to a clean ledger.

#include "hpcwhisk/analysis/conservation.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace hpcwhisk::analysis {
namespace {

using sim::SimTime;

TEST(ConservationAudit, ReportsTransitionsItDidNotObserve) {
  sim::Simulation sim;
  mq::Broker broker;
  whisk::FunctionRegistry registry;
  registry.put(whisk::fixed_duration_function("fn", SimTime::millis(10)));
  whisk::Controller controller{sim, broker, registry};

  (void)controller.submit("fn");  // id 0: 503, no invoker yet
  const whisk::InvokerId inv = controller.register_invoker();
  const auto finish = [&](whisk::ActivationId id, bool ok) {
    controller.activation_started(id, inv, false);
    if (ok) {
      controller.activation_completed(id);
    } else {
      controller.activation_failed(id);
    }
  };
  for (whisk::ActivationId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(controller.submit("fn").accepted);
    finish(id, id != 2);
  }
  const auto audit = std::make_unique<ConservationAudit>(controller);
  for (whisk::ActivationId id = 4; id <= 5; ++id) {
    ASSERT_TRUE(controller.submit("fn").accepted);
    finish(id, true);
  }
  ASSERT_TRUE(controller.submit("fn").accepted);  // id 6 stays queued

  const ConservationAudit::Result r = audit->finalize();
  EXPECT_EQ(r.report(),
            "conservation audit: VIOLATED\n"
            "  submitted=7 accepted=6 rejected_503=1\n"
            "  completed=4 failed=1 timed_out=0 in_flight=1"
            " double_terminal=0\n"
            "  ! activation 1: terminal (completed) without an observed"
            " transition\n"
            "  ! activation 2: terminal (failed) without an observed"
            " transition\n"
            "  ! activation 3: terminal (completed) without an observed"
            " transition\n"
            "  ! activation 6: accepted but never terminated"
            " (state=queued)\n");
}

}  // namespace
}  // namespace hpcwhisk::analysis
