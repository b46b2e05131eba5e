#pragma once
// A FIFO ring buffer: push at either end, pop at the front, index from
// the front. Capacity is zero or a power of two and doubles when full;
// only reset() gives the buffer back, so a FIFO in steady state stops
// allocating.

#include <cstddef>
#include <utility>
#include <vector>

namespace hpcwhisk::sim {

template <class T>
class Ring {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// The k-th entry from the front (k < size()).
  [[nodiscard]] T& operator[](std::size_t k) {
    return buf_[(head_ + k) & (buf_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t k) const {
    return buf_[(head_ + k) & (buf_.size() - 1)];
  }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const { return (*this)[count_ - 1]; }

  void push_back(const T& v) {
    if (count_ == buf_.size()) grow();
    ++count_;
    (*this)[count_ - 1] = v;
  }
  void push_front(const T& v) {
    if (count_ == buf_.size()) grow();
    head_ = (head_ - 1) & (buf_.size() - 1);
    ++count_;
    buf_[head_] = v;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  /// Keeps the first `n` entries (n <= size()).
  void truncate(std::size_t n) { count_ = n; }
  /// Empties the ring and frees its buffer.
  void reset() {
    std::vector<T>().swap(buf_);
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    // Unrolls the ring so the front lands at 0.
    std::vector<T> grown(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t k = 0; k < count_; ++k) grown[k] = (*this)[k];
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_{0};
  std::size_t count_{0};
};

}  // namespace hpcwhisk::sim
