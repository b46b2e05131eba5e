#pragma once
// An append-only sequence stored in fixed chunks of 2^ChunkBits
// elements. A chunk is allocated whole when the first element lands in
// it and never moves, so growth copies nothing and an element's address
// stays valid for the container's life. Unlike a doubling vector, the
// memory held is at most one chunk beyond the elements, even mid-growth.
//
// Each chunk's elements are default-constructed when the chunk is
// allocated; emplace_back() hands out the next one.

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

namespace hpcwhisk::sim {

template <class T, unsigned ChunkBits>
class Chunked {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkBits;

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i >> ChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i >> ChunkBits][i & (kChunkSize - 1)];
  }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  /// Appends a default-constructed element and returns it.
  T& emplace_back() {
    if ((size_ & (kChunkSize - 1)) == 0)
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    return (*this)[size_++];
  }

  /// Walks the elements in index order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return (*c_)[i_]; }
    pointer operator->() const { return &(*c_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    friend class Chunked;
    const_iterator(const Chunked* c, std::size_t i) : c_{c}, i_{i} {}
    const Chunked* c_{nullptr};
    std::size_t i_{0};
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_{0};
};

}  // namespace hpcwhisk::sim
