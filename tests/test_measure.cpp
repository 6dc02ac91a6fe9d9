#include <gtest/gtest.h>

#include "chaos/scripts.h"
#include "measure/campaign.h"
#include "measure/chaos_scenario.h"
#include "measure/fleet_scenario.h"
#include "measure/population_scenario.h"
#include "measure/report.h"
#include "measure/resource_model.h"
#include "measure/serverless_scenario.h"
#include "measure/stats.h"
#include "util/hash.h"

namespace sc::measure {
namespace {

// ---- Samples / Summary ----

TEST(Stats, SummaryOfKnownValues) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.n, 5u);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 5.0);
  EXPECT_DOUBLE_EQ(sum.p50, 3.0);
  EXPECT_NEAR(sum.stddev, 1.5811, 1e-3);
}

TEST(Stats, EmptyAndSingleton) {
  Samples empty;
  EXPECT_EQ(empty.summarize().n, 0u);
  Samples one;
  one.add(7.0);
  const Summary sum = one.summarize();
  EXPECT_EQ(sum.n, 1u);
  EXPECT_DOUBLE_EQ(sum.mean, 7.0);
  EXPECT_DOUBLE_EQ(sum.stddev, 0.0);
  EXPECT_DOUBLE_EQ(sum.p95, 7.0);
}

TEST(Stats, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const Summary sum = s.summarize();
  EXPECT_NEAR(sum.p50, 50.5, 0.01);
  EXPECT_NEAR(sum.p95, 95.05, 0.1);
}

TEST(Stats, EmptySummaryIsAllZero) {
  const Summary sum = Samples{}.summarize();
  EXPECT_EQ(sum.n, 0u);
  EXPECT_DOUBLE_EQ(sum.mean, 0.0);
  EXPECT_DOUBLE_EQ(sum.min, 0.0);
  EXPECT_DOUBLE_EQ(sum.max, 0.0);
  EXPECT_DOUBLE_EQ(sum.p50, 0.0);
  EXPECT_DOUBLE_EQ(sum.p90, 0.0);
  EXPECT_DOUBLE_EQ(sum.p99, 0.0);
}

TEST(Stats, SingleSampleEveryPercentileIsThatSample) {
  Samples one;
  one.add(42.0);
  const Summary sum = one.summarize();
  EXPECT_DOUBLE_EQ(sum.p50, 42.0);
  EXPECT_DOUBLE_EQ(sum.p90, 42.0);
  EXPECT_DOUBLE_EQ(sum.p95, 42.0);
  EXPECT_DOUBLE_EQ(sum.p99, 42.0);
  EXPECT_DOUBLE_EQ(sum.min, 42.0);
  EXPECT_DOUBLE_EQ(sum.max, 42.0);
}

TEST(Stats, TwoSamplesInterpolateBetweenThem) {
  Samples s;
  s.add(10.0);
  s.add(20.0);
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.n, 2u);
  // Lerp over [10, 20]: p = fraction of the way from min to max.
  EXPECT_DOUBLE_EQ(sum.p50, 15.0);
  EXPECT_DOUBLE_EQ(sum.p90, 19.0);
  EXPECT_DOUBLE_EQ(sum.p99, 19.9);
  EXPECT_NEAR(sum.stddev, 7.0711, 1e-3);  // sqrt(50)
}

TEST(Stats, HandComputedInterpolation) {
  // Four samples: idx(p) = 3p over sorted {1, 2, 4, 8}.
  Samples s;
  for (double v : {8.0, 1.0, 4.0, 2.0}) s.add(v);
  const Summary sum = s.summarize();
  EXPECT_DOUBLE_EQ(sum.p50, 3.0);    // idx 1.5 -> 2 + 0.5*(4-2)
  EXPECT_NEAR(sum.p90, 6.8, 1e-9);   // idx 2.7 -> 4 + 0.7*(8-4)
  EXPECT_NEAR(sum.p99, 7.88, 1e-9);  // idx 2.97
}

// ---- Report ----

TEST(Report, RowAndColumnRoundTrip) {
  Report report("title", {"c1", "c2"});
  report.addRow({"alpha", {1.0, 2.0}});
  report.addRow({"beta", {3.5, 4.5}});
  EXPECT_EQ(report.title(), "title");
  ASSERT_EQ(report.columns().size(), 2u);
  EXPECT_EQ(report.columns()[0], "c1");
  EXPECT_EQ(report.columns()[1], "c2");
  ASSERT_EQ(report.rows().size(), 2u);
  EXPECT_EQ(report.rows()[0].label, "alpha");
  EXPECT_DOUBLE_EQ(report.rows()[0].values[1], 2.0);
  EXPECT_EQ(report.rows()[1].label, "beta");
  ASSERT_EQ(report.rows()[1].values.size(), report.columns().size());
  EXPECT_DOUBLE_EQ(report.rows()[1].values[0], 3.5);
}

TEST(Stats, FormatMentionsAllFields) {
  Samples s;
  s.add(1.5);
  s.add(2.5);
  const std::string text = formatSummary(s.summarize(), "sec");
  EXPECT_NE(text.find("mean 2.00 sec"), std::string::npos);
  EXPECT_NE(text.find("n=2"), std::string::npos);
}

// ---- resource models: structural orderings, not magic numbers ----

CampaignResult fakeCampaign(Method m, std::uint64_t bytes, double plt_sub) {
  CampaignResult c;
  c.method = m;
  c.setup_ok = true;
  c.successes = 10;
  c.client_bytes = bytes * 10;
  Samples plt;
  plt.add(plt_sub);
  c.plt_sub_s = plt.summarize();
  c.connections_estimate = 8;
  return c;
}

TEST(ResourceModel, CpuOrderingMatchesFig6b) {
  // Same wire volume everywhere: ordering must come from the structure
  // (client-side crypto or not, Tor's heavier build and cell work).
  const auto vpn = modelCpu(fakeCampaign(Method::kNativeVpn, 30000, 1.2));
  const auto ovpn = modelCpu(fakeCampaign(Method::kOpenVpn, 30000, 1.2));
  const auto tor = modelCpu(fakeCampaign(Method::kTor, 30000, 2.8));
  const auto ss = modelCpu(fakeCampaign(Method::kShadowsocks, 30000, 2.0));
  EXPECT_LT(vpn.total(), ovpn.total());
  EXPECT_LT(ovpn.total(), tor.total());
  EXPECT_LT(ss.total(), tor.total());
  // Extra-client daemons exist only for OpenVPN and Shadowsocks, and their
  // cost is a small fraction of the browser's (the paper: "trivial").
  EXPECT_EQ(vpn.extra_client_pct, 0.0);
  EXPECT_GT(ovpn.extra_client_pct, 0.0);
  EXPECT_LT(ovpn.extra_client_pct, ovpn.browser_pct / 2);
}

TEST(ResourceModel, CpuScalesWithTraffic) {
  const auto light = modelCpu(fakeCampaign(Method::kOpenVpn, 10000, 1.2));
  const auto heavy = modelCpu(fakeCampaign(Method::kOpenVpn, 80000, 1.2));
  EXPECT_GT(heavy.total(), light.total());
}

TEST(ResourceModel, MemoryOrderingMatchesFig6c) {
  const auto vpn = modelMemory(fakeCampaign(Method::kNativeVpn, 30000, 1.2));
  const auto tor = modelMemory(fakeCampaign(Method::kTor, 30000, 2.8));
  const auto ss = modelMemory(fakeCampaign(Method::kShadowsocks, 30000, 2.0));
  // Tor Browser idles far above Chrome (the paper's ~70% gap).
  EXPECT_GT(tor.before_mb, vpn.before_mb * 1.5);
  // And grows the most while browsing.
  EXPECT_GT(tor.delta(), vpn.delta());
  EXPECT_GT(tor.delta(), ss.delta());
  // Everyone grows by something.
  EXPECT_GT(vpn.delta(), 10.0);
}

TEST(ResourceModel, CryptoFractionStructure) {
  EXPECT_EQ(clientCryptoFraction(Method::kNativeVpn), 0.0);   // kernel PPTP
  EXPECT_EQ(clientCryptoFraction(Method::kScholarCloud), 0.0);  // no client sw
  EXPECT_EQ(clientCryptoFraction(Method::kOpenVpn), 1.0);
  EXPECT_EQ(clientCryptoFraction(Method::kShadowsocks), 1.0);
  EXPECT_TRUE(hasExtraClientProcess(Method::kOpenVpn));
  EXPECT_TRUE(hasExtraClientProcess(Method::kShadowsocks));
  EXPECT_FALSE(hasExtraClientProcess(Method::kScholarCloud));
}

// ---- Report ----

TEST(Report, KeepsRowsInOrder) {
  Report report("test", {"a", "b"});
  report.addRow({"row1", {1.0, 2.0}});
  report.addRow({"row2", {3.0, 4.0}});
  ASSERT_EQ(report.rows().size(), 2u);
  EXPECT_EQ(report.rows()[0].label, "row1");
  EXPECT_EQ(report.rows()[1].values[1], 4.0);
  report.print();  // exercises the formatter; output checked by eye in CI
}

// ---- campaign plumbing on a real (small) testbed ----

TEST(Campaign, CollectsFirstAndSubsequentSeparately) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 4;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = false;
  const auto result = runAccessCampaign(tb, Method::kNativeVpn, 60, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_EQ(result.successes, 4);
  EXPECT_EQ(result.plt_first_s.n, 1u);
  EXPECT_EQ(result.plt_sub_s.n, 3u);
  EXPECT_GT(result.plt_first_s.mean, result.plt_sub_s.mean);
  EXPECT_GT(result.traffic_kb_per_access, 5.0);
}

TEST(Campaign, RttProbesProduceSamples) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 6;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = true;
  const auto result = runAccessCampaign(tb, Method::kNativeVpn, 61, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_GE(result.rtt_ms.n, 2u);
  // Warm-connection round trip: near the trans-Pacific RTT, not several of.
  EXPECT_GT(result.rtt_ms.mean, 100.0);
  EXPECT_LT(result.rtt_ms.mean, 500.0);
}

TEST(Campaign, ColdCacheMakesEveryAccessFirstVisit) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 3;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = false;
  opts.cold_cache = true;
  const auto result = runAccessCampaign(tb, Method::kOpenVpn, 62, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_EQ(result.plt_first_s.n, 3u);
  EXPECT_EQ(result.plt_sub_s.n, 0u);
}

TEST(Scalability, MorePointsMoreLoad) {
  ScalabilityOptions opts;
  opts.client_counts = {2, 12};
  opts.accesses_per_client = 3;
  const auto points = runScalability(Method::kShadowsocks, opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].clients, 2);
  EXPECT_EQ(points[1].clients, 12);
  EXPECT_GT(points[0].plt_mean_s, 0.0);
  EXPECT_EQ(points[0].failures, 0);
}

// ---- scenario worlds pinned byte for byte ----
//
// One small cell per scenario world shape, digested with FNV-1a over its
// metrics JSONL, its trace JSONL (tracing on) and its integer result
// fields. A refactor of how these worlds are built must leave every value
// unchanged: node names, IPs, RNG forks and event order all feed the bytes.

std::uint64_t digestOf(const std::string& metrics, const std::string& trace,
                       std::initializer_list<std::uint64_t> ints) {
  Fnv1a d;
  d.add(metrics);
  d.add(trace);
  for (const std::uint64_t v : ints) d.add(v);
  return d.value();
}

std::uint64_t u64(int v) { return static_cast<std::uint64_t>(v); }

TEST(ScenarioGolden, FleetCellWithChurnCacheAndAutoscale) {
  FleetCellOptions o;
  o.users = 3;
  o.fleet_size = 2;
  o.churn_interval = 5 * sim::kSecond;
  o.block_duration = 20 * sim::kSecond;
  o.duration = 30 * sim::kSecond;
  o.cache = true;
  o.autoscale = true;
  o.tracing = true;
  const FleetCellResult r = runFleetCell(o);
  EXPECT_GT(r.successes, 0);
  EXPECT_GT(r.blocks_applied, 0u);
  EXPECT_EQ(digestOf(r.metrics_jsonl, r.trace_jsonl,
                     {u64(r.attempts), u64(r.successes), r.cache_hits,
                      r.cache_misses, r.border_bytes, r.respawns,
                      r.failovers, r.blocks_applied, u64(r.final_size)}),
            0x85c2e595c0b98a6bULL)
      << std::hex;
}

TEST(ScenarioGolden, PopulationCellWithCohort) {
  PopulationCellOptions o;
  o.scholars = 10000;
  o.sc_adoption = 0.25;
  o.scheduler.time_scale = 86400.0 / 60.0;  // a day in 60 sim-seconds
  o.cohort_users = 2;
  o.autoscale = true;
  o.duration = 10 * sim::kSecond;
  o.tracing = true;
  const PopulationCellResult r = runPopulationCell(o);
  EXPECT_GT(r.background_stats.arrivals, 1000u);
  EXPECT_GT(r.background_stats.fleet_leases, 0u);
  EXPECT_GT(r.cohort_successes, 0);
  EXPECT_EQ(digestOf(r.metrics_jsonl, r.trace_jsonl,
                     {r.background_digest, u64(r.cohort_attempts),
                      u64(r.cohort_successes), r.cache_hits, r.cache_misses,
                      u64(r.final_fleet_size)}),
            0x9b0dadefed051c7fULL)
      << std::hex;
}

std::uint64_t chaosDigest(const ChaosCellResult& r) {
  return digestOf(r.metrics_jsonl, r.trace_jsonl,
                  {u64(r.attempts), u64(r.successes), u64(r.faults),
                   u64(r.impacted), u64(r.recovered), u64(r.unrecovered),
                   r.requests_lost, r.respawns, r.records.size()});
}

TEST(ScenarioGolden, ChaosCellOnFleetScholarCloud) {
  ChaosCellOptions o;
  o.method = Method::kScholarCloud;
  o.fleet = true;
  o.fleet_size = 2;
  o.users = 2;
  o.script = chaos::ssEndpointDiscovery(4 * sim::kSecond);
  o.duration = 30 * sim::kSecond;
  const ChaosCellResult r = runChaosCell(o);
  EXPECT_GT(r.impacted, 0);
  EXPECT_EQ(chaosDigest(r), 0x9629d35fc4293548ULL) << std::hex;
}

TEST(ScenarioGolden, ChaosCellOnServerless) {
  ChaosCellOptions o;
  o.method = Method::kServerless;
  o.users = 2;
  o.script = chaos::endpointBanWave(5 * sim::kSecond, 2);
  o.duration = 30 * sim::kSecond;
  const ChaosCellResult r = runChaosCell(o);
  EXPECT_GT(r.successes, 0);
  EXPECT_EQ(chaosDigest(r), 0x2fae465e672e1ec4ULL) << std::hex;
}

TEST(ScenarioGolden, ServerlessCell) {
  ServerlessCellOptions o;
  o.users = 2;
  o.script = chaos::endpointBanWave(5 * sim::kSecond, 3);
  o.duration = 30 * sim::kSecond;
  const ServerlessCellResult r = runServerlessCell(o);
  EXPECT_GT(r.successes, 0);
  EXPECT_EQ(
      digestOf(r.metrics_jsonl, r.trace_jsonl,
               {u64(r.attempts), u64(r.successes),
                u64(r.attempts_after_last_fault),
                u64(r.successes_after_last_fault), u64(r.faults),
                u64(r.impacted), u64(r.recovered), u64(r.unrecovered),
                r.requests_lost, r.invocations, r.spawns, r.cold_starts,
                r.bans, r.reaps, u64(r.final_live), u64(r.final_connected),
                r.border_bytes}),
      0x052dd88b0b2b1a39ULL)
      << std::hex;
}

}  // namespace
}  // namespace sc::measure
