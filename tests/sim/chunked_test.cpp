#include "hpcwhisk/sim/chunked.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hpcwhisk::sim {
namespace {

TEST(Chunked, IndexesAndIteratesInAppendOrder) {
  Chunked<int, 2> c;  // four elements per chunk
  EXPECT_EQ(c.begin(), c.end());
  for (int i = 0; i < 11; ++i) c.emplace_back() = 10 * i;
  ASSERT_EQ(c.size(), 11u);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(c[i], 10 * static_cast<int>(i));
  EXPECT_EQ(c.back(), 100);
  std::vector<int> walked;
  for (const int v : c) walked.push_back(v);
  EXPECT_EQ(walked, (std::vector<int>{0, 10, 20, 30, 40, 50, 60, 70, 80, 90,
                                      100}));
}

TEST(Chunked, ElementsNeverMove) {
  using Store = Chunked<int, 2>;
  Store c;
  c.emplace_back() = 42;
  const int* const at = &c[0];
  // Three more chunks.
  for (std::size_t i = 1; i < 4 * Store::kChunkSize; ++i)
    c.emplace_back() = static_cast<int>(i);
  EXPECT_EQ(&c[0], at);
  EXPECT_EQ(c[0], 42);
  EXPECT_EQ(c.back(), 15);
}

TEST(Chunked, AppendedElementsAreDefaultConstructed) {
  struct Item {
    int value{-1};
  };
  Chunked<Item, 3> c;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c.emplace_back().value, -1);
}

}  // namespace
}  // namespace hpcwhisk::sim
