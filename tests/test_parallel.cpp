#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "measure/parallel.h"

namespace sc::measure {
namespace {

TEST(ParallelRunner, ZeroThreadsSelectsAtLeastOne) {
  EXPECT_GE(ParallelRunner(0).threads(), 1u);
  EXPECT_EQ(ParallelRunner(3).threads(), 3u);
}

TEST(ParallelRunner, CoversEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<std::atomic<int>> hits(97);
  runner.forEachIndex(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, EmptyRangeIsNoop) {
  ParallelRunner runner(4);
  int calls = 0;
  runner.forEachIndex(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelRunner, RethrowsWorkerException) {
  ParallelRunner runner(4);
  EXPECT_THROW(runner.forEachIndex(16,
                                   [](std::size_t i) {
                                     if (i == 7)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

// The determinism contract: parallelism must change wall clock only, never
// results. Every cell owns its Simulator + Hub, merged in cell order.
TEST(ParallelCampaign, ScalabilityIdenticalForAnyThreadCount) {
  ScalabilityOptions opts;
  opts.client_counts = {2, 3};
  opts.accesses_per_client = 2;
  const auto serial = runScalability(Method::kScholarCloud, opts);
  const auto one = runScalabilityParallel(Method::kScholarCloud, opts, 1);
  const auto four = runScalabilityParallel(Method::kScholarCloud, opts, 4);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(one.size(), 2u);
  ASSERT_EQ(four.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].clients, one[i].clients);
    EXPECT_EQ(serial[i].plt_mean_s, one[i].plt_mean_s);
    EXPECT_EQ(serial[i].plt_p95_s, one[i].plt_p95_s);
    EXPECT_EQ(serial[i].failures, one[i].failures);
    EXPECT_EQ(one[i].clients, four[i].clients);
    EXPECT_EQ(one[i].plt_mean_s, four[i].plt_mean_s);
    EXPECT_EQ(one[i].plt_p95_s, four[i].plt_p95_s);
    EXPECT_EQ(one[i].failures, four[i].failures);
  }
}

TEST(ParallelCampaign, TrialTraceAndMetricsByteIdenticalForAnyThreadCount) {
  std::vector<CampaignTrial> trials(2);
  trials[0].method = Method::kScholarCloud;
  trials[0].tag = 7;
  trials[1].method = Method::kShadowsocks;
  trials[1].tag = 8;
  for (auto& t : trials) {
    t.campaign.accesses = 3;
    t.campaign.measure_rtt = false;
    t.testbed.tracing = true;
  }
  trials[1].testbed.seed = 43;

  const auto one = runCells(trials, 1, runCampaignTrial);
  const auto four = runCells(trials, 4, runCampaignTrial);
  ASSERT_EQ(one.size(), 2u);
  ASSERT_EQ(four.size(), 2u);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(one[i].result.setup_ok);
    EXPECT_FALSE(one[i].trace_jsonl.empty());
    EXPECT_FALSE(one[i].metrics_jsonl.empty());
    // Byte-identical JSONL: same seed => same simulation => same exports,
    // regardless of which worker thread ran the cell.
    EXPECT_EQ(one[i].trace_jsonl, four[i].trace_jsonl);
    EXPECT_EQ(one[i].metrics_jsonl, four[i].metrics_jsonl);
    EXPECT_EQ(one[i].result.successes, four[i].result.successes);
    EXPECT_EQ(one[i].result.failures, four[i].result.failures);
    EXPECT_EQ(one[i].result.client_bytes, four[i].result.client_bytes);
  }
  // Different seeds/methods must actually differ (the comparison above is
  // not vacuous).
  EXPECT_NE(one[0].metrics_jsonl, one[1].metrics_jsonl);
}

}  // namespace
}  // namespace sc::measure
