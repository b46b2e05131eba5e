#include "hpcwhisk/whisk/activation.hpp"

#include <algorithm>

namespace hpcwhisk::whisk {

ActivationRecord& ActivationStore::emplace_back() {
  const std::size_t k = size_ - base_;
  if (k == window_.size() * kChunkSize)
    window_.push_back(std::make_unique<ActivationRecord[]>(kChunkSize));
  ++size_;
  return window_[k / kChunkSize][k % kChunkSize];
}

ActivationRecord ActivationStore::operator[](ActivationId id) const {
  if (id >= base_) return live(id);
  const ArchivedRecord& a = archive_[id];
  if (!a.exception()) return a.decode(id);
  return *std::lower_bound(
      exceptions_.begin(), exceptions_.end(), id,
      [](const ActivationRecord& r, ActivationId v) { return r.id < v; });
}

void ActivationStore::archive_terminal_prefix() {
  while (first_open_ < size_ && is_terminal(live(first_open_).state))
    ++first_open_;
  while (first_open_ - base_ >= kChunkSize) {
    const ActivationRecord* chunk = window_.front().get();
    for (std::size_t k = 0; k < kChunkSize; ++k) {
      ArchivedRecord& a = archive_.emplace_back();
      a = ArchivedRecord::encode(chunk[k]);
      if (a.exception()) exceptions_.push_back(chunk[k]);
    }
    window_.pop_front();
    base_ += kChunkSize;
  }
}

}  // namespace hpcwhisk::whisk
