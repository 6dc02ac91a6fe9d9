// Fleet sweep: success ratio under GFW blocklist churn vs fleet size, and
// the domestic response cache's effect on border-link traffic.
//
// Each cell is an independent fleet world (runFleetCell) fanned across the
// ParallelRunner; the whole sweep is re-run serially and compared, so the
// bench doubles as the executor determinism check. Writes BENCH_fleet.json.
// Env knobs (CI smoke passes tiny values):
//   SC_BENCH_FLEET_USERS       concurrent users          (default 6)
//   SC_BENCH_FLEET_SIZES       fleet sizes swept         (default 1,2,4)
//   SC_BENCH_FLEET_CHURN_S     churn interval, seconds   (default 15)
//   SC_BENCH_FLEET_DURATION_S  sim duration, seconds     (default 120)
//   SC_BENCH_THREADS           parallel workers          (default hardware)
#include "bench_common.h"
#include "measure/fleet_scenario.h"
#include "measure/parallel.h"

namespace {

bool sameCell(const sc::measure::FleetCellResult& x,
              const sc::measure::FleetCellResult& y) {
  return x.attempts == y.attempts && x.successes == y.successes &&
         x.cache_hits == y.cache_hits && x.border_bytes == y.border_bytes &&
         x.respawns == y.respawns && x.metrics_jsonl == y.metrics_jsonl;
}

}  // namespace

int main() {
  using namespace sc;
  const int users = bench::intFromEnv("SC_BENCH_FLEET_USERS", 6);
  std::vector<int> sizes = bench::parseIntList("SC_BENCH_FLEET_SIZES");
  if (sizes.empty()) sizes = {1, 2, 4};
  const int churn_s = bench::intFromEnv("SC_BENCH_FLEET_CHURN_S", 15);
  const int duration_s = bench::intFromEnv("SC_BENCH_FLEET_DURATION_S", 120);
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Fleet scale — success under churn vs size, cache vs border\n");

  // Cells: the size sweep runs cache-off so the ratio reflects the fleet
  // (a warm cache would serve the page even with every endpoint down);
  // the last two cells isolate the cache by toggling only it.
  std::vector<measure::FleetCellOptions> cells;
  for (const int size : sizes) {
    measure::FleetCellOptions c;
    c.users = users;
    c.fleet_size = size;
    c.churn_interval = churn_s * sim::kSecond;
    c.duration = duration_s * sim::kSecond;
    c.cache = false;
    cells.push_back(c);
  }
  {
    measure::FleetCellOptions c;
    c.users = users;
    c.fleet_size = sizes.back();
    c.churn_interval = churn_s * sim::kSecond;
    c.duration = duration_s * sim::kSecond;
    c.cache = true;
    cells.push_back(c);  // cache on ...
    c.cache = false;
    cells.push_back(c);  // ... vs the identical world without it
  }

  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return measure::runCells(cells, t, measure::runFleetCell);
      },
      sameCell);
  const auto& results = identity.parallel;
  const bool match = identity.match;

  bool monotone = true;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    if (results[i + 1].success_ratio + 1e-9 < results[i].success_ratio)
      monotone = false;
  const auto& cache_on = results[sizes.size()];
  const auto& cache_off = results[sizes.size() + 1];
  const bool cache_hits_positive = cache_on.cache_hits > 0;
  const bool cache_saves_border =
      cache_on.border_bytes < cache_off.border_bytes;

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& r = results[i];
    std::printf(
        "  size %d: %d/%d ok (%.3f), %llu respawns, %llu failovers, "
        "%llu border bytes\n",
        sizes[i], r.successes, r.attempts, r.success_ratio,
        static_cast<unsigned long long>(r.respawns),
        static_cast<unsigned long long>(r.failovers),
        static_cast<unsigned long long>(r.border_bytes));
  }
  std::printf(
      "  cache: %llu hits, border %llu -> %llu bytes; monotone %s, "
      "parallel %s (%.2fs vs %.2fs serial on %u threads)\n",
      static_cast<unsigned long long>(cache_on.cache_hits),
      static_cast<unsigned long long>(cache_off.border_bytes),
      static_cast<unsigned long long>(cache_on.border_bytes),
      monotone ? "yes" : "NO", match ? "matches" : "DIFFERS",
      identity.parallel_s, identity.serial_s, threads);

  bench::JsonArtifact jw("BENCH_fleet.json");
  if (!jw.ok()) return 1;
  jw.beginObject("config")
      .field("users", users)
      .field("churn_interval_s", churn_s)
      .field("duration_s", duration_s)
      .field("threads", threads)
      .endObject();
  jw.beginArray("cells");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    jw.beginObject()
        .field("fleet_size", cells[i].fleet_size)
        .field("cache", cells[i].cache)
        .field("attempts", r.attempts)
        .field("successes", r.successes)
        .field("success_ratio", r.success_ratio)
        .field("cache_hits", r.cache_hits)
        .field("cache_misses", r.cache_misses)
        .field("border_bytes", r.border_bytes)
        .field("respawns", r.respawns)
        .field("failovers", r.failovers)
        .field("blocks_applied", r.blocks_applied)
        .field("final_size", r.final_size)
        .endObject();
  }
  jw.endArray();
  jw.beginObject("checks")
      .field("success_monotone_in_fleet_size", monotone)
      .field("cache_hits_positive", cache_hits_positive)
      .field("cache_reduces_border_bytes", cache_saves_border)
      .field("parallel_matches_serial", match)
      .endObject();
  jw.close();
  return match ? 0 : 1;
}
