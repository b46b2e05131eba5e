#include "hpcwhisk/sched/backlog.hpp"

namespace hpcwhisk::sched {

void BacklogLedger::assign(CallId call, WorkerId worker,
                           std::int64_t cost_ticks,
                           std::int64_t predicted_ticks) {
  const auto it = charges_.find(call);
  if (it != charges_.end()) {
    // Reroute of a still-charged call: move the existing charge.
    add(it->second.worker, -it->second.cost_ticks);
    total_ -= it->second.cost_ticks;
    it->second.worker = worker;
    it->second.cost_ticks = cost_ticks;
    add(worker, cost_ticks);
    total_ += cost_ticks;
    return;
  }
  charges_.emplace(call, Charge{worker, cost_ticks, predicted_ticks});
  add(worker, cost_ticks);
  total_ += cost_ticks;
}

void BacklogLedger::add(WorkerId worker, std::int64_t delta) {
  if (worker >= backlog_.size()) backlog_.resize(std::size_t{worker} + 1, 0);
  backlog_[worker] += delta;
}

bool BacklogLedger::move(CallId call, WorkerId worker) {
  const auto it = charges_.find(call);
  if (it == charges_.end() || it->second.worker == worker) return false;
  add(it->second.worker, -it->second.cost_ticks);
  add(worker, it->second.cost_ticks);
  it->second.worker = worker;
  return true;
}

bool BacklogLedger::release(CallId call, Charge* out) {
  const auto it = charges_.find(call);
  if (it == charges_.end()) return false;
  if (out != nullptr) *out = it->second;
  add(it->second.worker, -it->second.cost_ticks);
  total_ -= it->second.cost_ticks;
  charges_.erase(it);
  return true;
}

std::size_t BacklogLedger::forget_worker(WorkerId worker) {
  std::size_t dropped = 0;
  for (auto it = charges_.begin(); it != charges_.end();) {
    if (it->second.worker == worker) {
      total_ -= it->second.cost_ticks;
      it = charges_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (worker < backlog_.size()) backlog_[worker] = 0;
  return dropped;
}

std::int64_t BacklogLedger::backlog(WorkerId worker) const {
  return worker < backlog_.size() ? backlog_[worker] : 0;
}

const BacklogLedger::Charge* BacklogLedger::find(CallId call) const {
  const auto it = charges_.find(call);
  return it == charges_.end() ? nullptr : &it->second;
}

}  // namespace hpcwhisk::sched
