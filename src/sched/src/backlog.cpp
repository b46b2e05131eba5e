#include "hpcwhisk/sched/backlog.hpp"

#include <cassert>
#include <utility>

namespace hpcwhisk::sched {

void BacklogLedger::assign(CallId call, WorkerId worker,
                           std::int64_t cost_ticks,
                           std::int64_t predicted_ticks) {
  assert(worker != kNoWorker);
  if (Charge* c = slot(call)) {
    // Reroute of a still-charged call: move the existing charge.
    add(c->worker, -c->cost_ticks);
    total_ -= c->cost_ticks;
    c->worker = worker;
    c->cost_ticks = cost_ticks;
    add(worker, cost_ticks);
    total_ += cost_ticks;
    return;
  }
  constexpr Charge kEmpty{kNoWorker, 0, 0};
  if (charge_count_ == 0) {
    charges_.truncate(0);
    base_ = call;
  }
  // Empty slots leave the front only when the ring would grow: a
  // requeued call is charged again when it restarts, and a front trimmed
  // at every release would be extended again slot by slot for it.
  if (call >= base_ + charges_.size() &&
      charges_.size() == charges_.capacity())
    trim_front();
  while (call < base_) {  // an older call charged again
    charges_.push_front(kEmpty);
    --base_;
  }
  while (base_ + charges_.size() <= call) charges_.push_back(kEmpty);
  charges_[call - base_] = Charge{worker, cost_ticks, predicted_ticks};
  ++charge_count_;
  add(worker, cost_ticks);
  total_ += cost_ticks;
}

void BacklogLedger::add(WorkerId worker, std::int64_t delta) {
  if (worker >= backlog_.size()) backlog_.resize(std::size_t{worker} + 1, 0);
  backlog_[worker] += delta;
}

BacklogLedger::Charge* BacklogLedger::slot(CallId call) {
  return const_cast<Charge*>(std::as_const(*this).find(call));
}

void BacklogLedger::erase(Charge& charge) {
  charge.worker = kNoWorker;
  --charge_count_;
}

void BacklogLedger::trim_front() {
  while (!charges_.empty() && charges_.front().worker == kNoWorker) {
    charges_.pop_front();
    ++base_;
  }
}

bool BacklogLedger::move(CallId call, WorkerId worker) {
  assert(worker != kNoWorker);
  Charge* c = slot(call);
  if (c == nullptr || c->worker == worker) return false;
  add(c->worker, -c->cost_ticks);
  add(worker, c->cost_ticks);
  c->worker = worker;
  return true;
}

bool BacklogLedger::release(CallId call, Charge* out) {
  Charge* c = slot(call);
  if (c == nullptr) return false;
  if (out != nullptr) *out = *c;
  add(c->worker, -c->cost_ticks);
  total_ -= c->cost_ticks;
  erase(*c);
  return true;
}

std::size_t BacklogLedger::forget_worker(WorkerId worker) {
  // Only sums and empties slots, so the walk order decides nothing.
  std::size_t dropped = 0;
  for (std::size_t k = 0; k < charges_.size(); ++k) {
    Charge& c = charges_[k];
    if (c.worker != worker) continue;
    total_ -= c.cost_ticks;
    erase(c);
    ++dropped;
  }
  if (worker < backlog_.size()) backlog_[worker] = 0;
  return dropped;
}

std::int64_t BacklogLedger::backlog(WorkerId worker) const {
  return worker < backlog_.size() ? backlog_[worker] : 0;
}

const BacklogLedger::Charge* BacklogLedger::find(CallId call) const {
  if (call < base_ || call - base_ >= charges_.size()) return nullptr;
  const Charge& c = charges_[call - base_];
  return c.worker == kNoWorker ? nullptr : &c;
}

}  // namespace hpcwhisk::sched
