// Tests of the benchmark's own arithmetic: percentiles from raw samples,
// the sample-count rule, the self-time fold and the attribution ratio.

#include "arith.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace perfbench {
namespace {

using tc::obs::AssembledSpan;
using tc::obs::SpanTree;

TEST(Percentile, NearestRankOfRawSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  EXPECT_EQ(Percentile(v, 0.50), 500);
  EXPECT_EQ(Percentile(v, 0.99), 990);  // Ten samples lie beyond it.
  EXPECT_EQ(Percentile(v, 1.0), 1000);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({42}, 0.99), 42);
}

TEST(Percentile, DistinguishesCloseTailValues) {
  // Values a 4-sub-bucket histogram would merge into one bucket (448..511)
  // stay distinct when taken from the raw samples.
  std::vector<double> v(900, 100.0);
  for (int i = 0; i < 100; ++i) v.push_back(450 + i * 0.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.95), 474.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 494.5);
}

TEST(SamplesNeeded, TenBeyondTheQuantile) {
  EXPECT_EQ(SamplesNeeded(0.99), 1000u);
  EXPECT_EQ(SamplesNeeded(0.95), 200u);
  EXPECT_EQ(SamplesNeeded(0.50), 20u);
  EXPECT_EQ(SamplesNeeded(0.99, 20), 2000u);
  // At exactly the needed count, ten samples rank above the p99 rank.
  const size_t n = SamplesNeeded(0.99);
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  const double p99 = Percentile(v, 0.99);
  size_t beyond = 0;
  for (double x : v) beyond += x > p99 ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
}

// Builds a tree from (id, parent, tid, component, name, start, end).
struct S {
  uint64_t id, parent;
  uint32_t tid;
  const char* component;
  const char* name;
  uint64_t start, end;
  bool complete = true;
};

SpanTree Tree(const std::vector<S>& spans) {
  SpanTree tree;
  tree.trace_id = 1;
  for (const S& s : spans) {
    AssembledSpan a;
    a.trace_id = 1;
    a.span_id = s.id;
    a.parent_id = s.parent;
    a.tid = s.tid;
    a.component = s.component;
    a.name = s.name;
    a.start_us = s.start;
    a.end_us = s.end;
    a.complete = s.complete;
    tree.spans[s.id] = a;
    if (s.parent == 0) tree.roots.push_back(s.id);
  }
  return tree;
}

TEST(FoldSelfTime, NestedChildrenSubtractOnce) {
  // cell [0,100) > storage [10,30) and rpc [40,90) > cloud [50,70).
  SelfTimeFold f = FoldSelfTime({Tree({{1, 0, 1, "cell", "store", 0, 100},
                                       {2, 1, 1, "storage", "put", 10, 30},
                                       {3, 1, 1, "rpc", "put_batch", 40, 90},
                                       {4, 3, 2, "cloud", "put", 50, 70}})});
  EXPECT_EQ(f.by_component["cell"], 30u);
  EXPECT_EQ(f.by_component["storage"], 20u);
  EXPECT_EQ(f.by_component["rpc"], 30u);
  EXPECT_EQ(f.by_component["cloud"], 20u);
  EXPECT_EQ(f.by_span["rpc/put_batch"], 30u);
  // Self times of a well-nested tree sum to the root's duration.
  uint64_t sum = 0;
  for (const auto& [c, us] : f.by_component) sum += us;
  EXPECT_EQ(sum, 100u);
  EXPECT_EQ(f.count_by_span["storage/put"], 1u);
}

TEST(FoldSelfTime, OverlappingChildrenCountTheirUnion) {
  // Two children on other threads overlap in [30,50): covered = [20,70).
  SelfTimeFold f = FoldSelfTime({Tree({{1, 0, 1, "rpc", "call", 0, 100},
                                       {2, 1, 2, "cloud", "a", 20, 50},
                                       {3, 1, 3, "cloud", "b", 30, 70}})});
  EXPECT_EQ(f.by_component["rpc"], 50u);
  EXPECT_EQ(f.by_component["cloud"], 70u);  // Each child keeps its own time.
}

TEST(FoldSelfTime, ChildOnAnotherThreadIsClippedToItsParent) {
  // A server-side child whose clock interval starts before and ends after
  // the client span only covers the client span's own interval.
  SelfTimeFold f = FoldSelfTime({Tree({{1, 0, 1, "rpc", "call", 10, 40},
                                       {2, 1, 7, "cloud", "get", 5, 45}})});
  EXPECT_EQ(f.by_component["rpc"], 0u);
  EXPECT_EQ(f.by_component["cloud"], 40u);
}

TEST(FoldSelfTime, ContainedAndDisjointChildren) {
  SelfTimeFold f = FoldSelfTime({Tree({{1, 0, 1, "cell", "op", 0, 100},
                                       {2, 1, 1, "storage", "get", 10, 60},
                                       {3, 1, 2, "cloud", "x", 20, 30},
                                       {4, 1, 1, "storage", "get", 80, 90}})});
  EXPECT_EQ(f.by_component["cell"], 40u);  // 100 - [10,60) - [80,90).
  EXPECT_EQ(f.by_span["storage/get"], 60u);
  EXPECT_EQ(f.count_by_span["storage/get"], 2u);
}

TEST(FoldSelfTime, IncompleteSpansAreCountedNotFolded) {
  SelfTimeFold f = FoldSelfTime(
      {Tree({{1, 0, 1, "cell", "op", 0, 100},
             {2, 1, 1, "storage", "get", 10, 0, /*complete=*/false}})});
  EXPECT_EQ(f.incomplete, 1u);
  EXPECT_EQ(f.by_component["cell"], 100u);
  EXPECT_EQ(f.by_component.count("storage"), 0u);
}

TEST(FoldSelfTime, AddAccumulatesWindows) {
  SelfTimeFold total;
  for (int i = 0; i < 3; ++i) {
    total.Add(FoldSelfTime({Tree({{1, 0, 1, "cell", "op", 0, 10}})}));
  }
  EXPECT_EQ(total.by_component["cell"], 30u);
  EXPECT_EQ(total.count_by_span["cell/op"], 3u);
}

TEST(AttributedFrac, LayerSelfTimesOverOperationTime) {
  EXPECT_DOUBLE_EQ(AttributedFrac(950, 1000), 0.95);
  EXPECT_DOUBLE_EQ(AttributedFrac(0, 0), 0.0);
  // A fold of one operation whose spans cover 90 of its 100 us.
  SelfTimeFold f = FoldSelfTime({Tree({{1, 0, 1, "cell", "op", 5, 95},
                                       {2, 1, 1, "rpc", "get", 20, 60}})});
  double layers = 0;
  for (const auto& [c, us] : f.by_component) layers += static_cast<double>(us);
  EXPECT_DOUBLE_EQ(AttributedFrac(layers, 100), 0.9);
}

TEST(ZipfSampler, RanksInRangeAndSkewed) {
  ZipfSampler zipf(0.99);
  std::mt19937_64 gen(1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<int> hits(257, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t k = zipf.Sample(256, [&] { return u(gen); });
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 256u);
    ++hits[k];
  }
  // P(1)/P(2) = 2^0.99 ~ 1.99 for Zipf(0.99).
  EXPECT_NEAR(static_cast<double>(hits[1]) / hits[2], 1.99, 0.15);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_EQ(zipf.Sample(1, [&] { return u(gen); }), 1u);
}

}  // namespace
}  // namespace perfbench
