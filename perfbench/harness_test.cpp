// Tests for the benchmark's own helpers: the percentile rule, self-time
// subtraction and span bookkeeping, and the sweep digests' independence
// from the pool size (the gates compare digests across runs that may use
// different thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/batch_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, NearestRankOnKnownArrays) {
  std::vector<double> values = one_to(100);
  EXPECT_EQ(percentile(values, 0.50), 50.0);
  EXPECT_EQ(percentile(values, 0.90), 90.0);
  std::vector<double> reversed = one_to(1000);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(percentile(reversed, 0.99), 990.0);
  EXPECT_EQ(percentile(reversed, 0.50), 500.0);
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  std::vector<double> exactly_ten_beyond = one_to(1000);
  EXPECT_EQ(percentile(exactly_ten_beyond, 0.99), 990.0);
  std::vector<double> nine_beyond = one_to(999);
  EXPECT_FALSE(percentile(nine_beyond, 0.99).has_value());
  std::vector<double> small = one_to(19);
  EXPECT_FALSE(percentile(small, 0.50).has_value());
  std::vector<double> enough = one_to(20);
  EXPECT_EQ(percentile(enough, 0.50), 10.0);
  std::vector<double> empty;
  EXPECT_FALSE(percentile(empty, 0.50).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsChildrenAndClampsAtZero) {
  const SelfTime plain = self_time(10.0, 4.0);
  EXPECT_EQ(plain.value, 6.0);
  EXPECT_FALSE(plain.clamped);
  const SelfTime exact = self_time(4.0, 4.0);
  EXPECT_EQ(exact.value, 0.0);
  EXPECT_FALSE(exact.clamped);
  const SelfTime negative = self_time(3.0, 4.0);
  EXPECT_EQ(negative.value, 0.0);
  EXPECT_TRUE(negative.clamped);
}

TEST(SpanLog, SelfTimeSubtractsDirectChildrenOnly) {
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](int us) { return t0 + std::chrono::microseconds(us); };
  SpanLog log(t0);
  const std::int32_t root = log.add("request", 1, at(0), at(100));
  const std::int32_t child = log.add("stage", 1, at(10), at(40), root);
  log.add("stage", 1, at(50), at(70), root);
  log.add("inner", 1, at(15), at(35), child);  // a grandchild: not the root's
  // Children that sum past their parent (timer noise) clamp and are counted.
  const std::int32_t short_root = log.add("request", 2, at(200), at(210));
  log.add("stage", 2, at(200), at(230), short_root);

  std::size_t clamped = 0;
  const std::vector<double> self = log.self_micros_of("request", &clamped);
  ASSERT_EQ(self.size(), 2U);
  EXPECT_NEAR(self[0], 50.0, 1e-9);
  EXPECT_EQ(self[1], 0.0);
  EXPECT_EQ(clamped, 1U);
  EXPECT_NEAR(log.total_seconds("stage"), 80e-6, 1e-12);
}

TEST(SpanLog, MergeRebasesParents) {
  const Clock::time_point t0 = Clock::now();
  SpanLog a(t0), b(t0);
  a.add("x", 0, t0, t0);
  const std::int32_t parent = b.add("request", 1, t0, t0 + std::chrono::microseconds(10));
  b.add("stage", 1, t0, t0 + std::chrono::microseconds(4), parent);
  a.merge(b);
  ASSERT_EQ(a.spans().size(), 3U);
  EXPECT_EQ(a.spans()[2].parent, 1);
  std::size_t clamped = 0;
  EXPECT_NEAR(a.self_micros_of("request", &clamped).at(0), 6.0, 1e-9);
}

TEST(Digest, MatchesFnv1aAndSeesDoubleBits) {
  Digest empty;
  EXPECT_EQ(empty.hex(), "cbf29ce484222325");
  Digest a;
  a.update("a");
  EXPECT_EQ(a.hex(), "af63dc4c8601ec8c");
  Digest zero, negative_zero;
  zero.update_double(0.0);
  negative_zero.update_double(-0.0);
  EXPECT_NE(zero.value(), negative_zero.value());
}

TEST(SweepDigests, PaperFig3IsIndependentOfThreadCount) {
  const Fig3Size size{4, 2000};
  const auto population = fig3_population(size, 11);
  const std::string one =
      render_fig3(rimarket::sim::evaluate(population, fig3_spec(11, 1)));
  const std::string four =
      render_fig3(rimarket::sim::evaluate(population, fig3_spec(11, 4)));
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("Fig. 3(c)"), std::string::npos);
}

TEST(SweepDigests, CheckpointedSweepIsIndependentOfThreadCount) {
  const CheckpointSize size{100, 600};
  const auto population = checkpoint_population(size, 5);
  const std::string dir = ::testing::TempDir() + "perfbench_ckpt";
  std::filesystem::create_directories(dir);
  std::string digests[2];
  for (int i = 0; i < 2; ++i) {
    rimarket::sim::BatchOptions options;
    options.checkpoint_path = dir + "/sweep.ckpt";
    options.shard_size = 32;
    rimarket::sim::BatchSweepEngine engine(checkpoint_spec(5, i == 0 ? 1 : 4), options);
    const auto outcome = engine.run(population.users());
    ASSERT_TRUE(outcome.finished);
    digests[i] = report_digest(outcome.report);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], report_digest(rimarket::sim::evaluate_sweep(
                            population, checkpoint_spec(5, 2))));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
