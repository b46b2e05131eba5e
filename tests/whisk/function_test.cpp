#include "hpcwhisk/whisk/function.hpp"

#include <gtest/gtest.h>

namespace hpcwhisk::whisk {
namespace {

TEST(FunctionRegistry, PutAndFind) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  EXPECT_NE(reg.find("a"), nullptr);
  EXPECT_EQ(reg.find("b"), nullptr);
  EXPECT_EQ(reg.at("a").name, "a");
  EXPECT_THROW(static_cast<void>(reg.at("b")), std::out_of_range);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FunctionRegistry, PutReplaces) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 128));
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5), 512));
  EXPECT_EQ(reg.at("a").memory_mb, 512);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FunctionRegistry, RejectsInvalidSpecs) {
  FunctionRegistry reg;
  FunctionSpec unnamed;
  unnamed.duration = [](sim::Rng&) { return sim::SimTime::millis(1); };
  EXPECT_THROW(reg.put(unnamed), std::invalid_argument);
  FunctionSpec no_model;
  no_model.name = "x";
  EXPECT_THROW(reg.put(no_model), std::invalid_argument);
}

TEST(FunctionRegistry, PutAssignsTheIndexAndCachesTheHash) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  reg.put(fixed_duration_function("b", sim::SimTime::millis(5)));
  reg.put(fixed_duration_function("a", sim::SimTime::millis(9)));  // replace
  EXPECT_EQ(reg.at("a").index, 0u);
  EXPECT_EQ(reg.at("b").index, 1u);
  EXPECT_EQ(&reg.spec(1), &reg.at("b"));
  EXPECT_EQ(reg.at("a").hash, function_hash("a"));
  EXPECT_EQ(reg.at("b").hash, function_hash("b"));
}

TEST(FunctionRegistry, NamesListsAll) {
  FunctionRegistry reg;
  reg.put(fixed_duration_function("a", sim::SimTime::millis(5)));
  reg.put(fixed_duration_function("b", sim::SimTime::millis(5)));
  EXPECT_EQ(reg.names().size(), 2u);
}

TEST(FunctionHash, DeterministicAndSpread) {
  EXPECT_EQ(function_hash("pagerank"), function_hash("pagerank"));
  EXPECT_NE(function_hash("pagerank"), function_hash("bfs"));
  // Distinct names should spread over buckets reasonably.
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i)
    buckets[function_hash("fn-" + std::to_string(i)) % 4]++;
  for (const int b : buckets) EXPECT_GT(b, 50);
}

TEST(FixedDurationFunction, AlwaysSameDuration) {
  const auto spec = fixed_duration_function("f", sim::SimTime::millis(42));
  sim::Rng rng{1};
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(spec.duration(rng), sim::SimTime::millis(42));
  EXPECT_TRUE(spec.interruptible);
}

}  // namespace
}  // namespace hpcwhisk::whisk
