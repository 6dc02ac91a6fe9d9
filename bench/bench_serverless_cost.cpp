// Serverless cost/survivability bench: the ephemeral-endpoint method priced
// against the fault model that motivates it.
//
// Three sections, one JSON artifact (BENCH_serverless.json):
//
//   ban_wave  — the same endpointBanWave script (N permanent per-endpoint IP
//     bans) against two configurations of the serverless world: respawn on
//     (the method) and respawn off (a frozen endpoint set — what a
//     fixed-server deployment looks like to the GFW). The headline: the
//     ephemeral method keeps succeeding after the last ban lands; the static
//     set goes dark and stays dark.
//
//   frontier  — cost vs blocked-rate under that same ban wave, serverless
//     against the ScholarCloud fleet, Tor, and Shadowsocks chaos worlds.
//     Static methods pay dedicated-server-seconds for the whole cell
//     (servers x duration at the same per-endpoint-second rate); serverless
//     pays measured endpoint-seconds plus per-invocation fees. The frontier
//     is the pitch: slightly more cost units per delivered page, far lower
//     blocked rate under per-endpoint loss.
//
//   cold_start — the pricing sharp edge: every spawn pays a cold start drawn
//     in [min, max]; the measured mean/max must stay inside the configured
//     bounds (the draw is deterministic, so out-of-bounds means a lifecycle
//     bug, not bad luck).
//
// The ban-wave cells run parallel then serial and must match byte for byte
// (trace + metrics JSONL), so the bench doubles as the serverless
// determinism check.
//
// Env knobs (CI smoke passes tiny values):
//   SC_BENCH_SL_USERS       users per cell              (default 3)
//   SC_BENCH_SL_DAY_S       compressed "day", seconds   (default 10)
//   SC_BENCH_SL_BANS        bans in the wave            (default 6)
//   SC_BENCH_SL_DURATION_S  sim duration, seconds       (default 120)
//   SC_BENCH_THREADS        parallel workers            (default hardware)
#include <algorithm>

#include "bench_common.h"
#include "chaos/scripts.h"
#include "measure/chaos_scenario.h"
#include "measure/parallel.h"
#include "measure/serverless_scenario.h"
#include "serverless/cost.h"

namespace {

bool sameCell(const sc::measure::ServerlessCellResult& x,
              const sc::measure::ServerlessCellResult& y) {
  return x.attempts == y.attempts && x.successes == y.successes &&
         x.spawns == y.spawns && x.bans == y.bans &&
         x.endpoint_seconds == y.endpoint_seconds &&
         x.cost_units == y.cost_units && x.metrics_jsonl == y.metrics_jsonl &&
         x.trace_jsonl == y.trace_jsonl;
}

struct FrontierRow {
  const char* label;
  double endpoint_seconds = 0;
  double cost_units = 0;
  double blocked_rate = 0;   // 1 - success ratio over the whole cell
  double dead_rate = 0;      // 1 - success ratio after the last ban
  int unrecovered = 0;
};

}  // namespace

int main() {
  using namespace sc;
  const int users = bench::intFromEnv("SC_BENCH_SL_USERS", 3);
  const int day_s = bench::intFromEnv("SC_BENCH_SL_DAY_S", 10);
  const int bans = bench::intFromEnv("SC_BENCH_SL_BANS", 6);
  const int duration_s = bench::intFromEnv("SC_BENCH_SL_DURATION_S", 120);
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Serverless — cost vs blocked-rate under a per-endpoint ban "
              "wave (%d bans)\n", bans);

  const chaos::ChaosScript wave =
      chaos::endpointBanWave(day_s * sim::kSecond, bans);

  // ---- ban wave: ephemeral vs frozen endpoint set --------------------
  std::vector<measure::ServerlessCellOptions> cells(2);
  cells[0].users = users;
  cells[0].script = wave;
  cells[0].duration = duration_s * sim::kSecond;
  cells[0].respawn = true;
  cells[1] = cells[0];
  cells[1].respawn = false;
  // The frozen set gets fewer endpoints than the wave has bans — a finite
  // set against a censor that bans every IP it confirms always loses; the
  // two spare bans prove the set is exhausted, not merely thinned.
  cells[1].prewarm = std::max(1, bans - 2);
  cells[1].max_live = cells[1].prewarm;
  cells[1].ttl = 0;  // no reaping: bans are the only thing that kills it

  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return measure::runCells(cells, t, measure::runServerlessCell);
      },
      sameCell);
  const auto& results = identity.parallel;
  const bool match = identity.match;

  const auto& ephem = results[0];
  const auto& frozen = results[1];
  for (const auto* cell : {&ephem, &frozen}) {
    std::printf(
        "  %-9s %3d/%3d ok (after wave %d/%d)  spawns %llu bans %llu reaps "
        "%llu  live %d  cost %.1f (%.1f ep-s, %llu invocations)\n",
        cell == &ephem ? "ephemeral" : "static", cell->successes,
        cell->attempts, cell->successes_after_last_fault,
        cell->attempts_after_last_fault,
        static_cast<unsigned long long>(cell->spawns),
        static_cast<unsigned long long>(cell->bans),
        static_cast<unsigned long long>(cell->reaps), cell->final_live,
        cell->cost_units, cell->endpoint_seconds,
        static_cast<unsigned long long>(cell->invocations));
  }

  const bool survives = ephem.attempts_after_last_fault > 0 &&
                        ephem.successes_after_last_fault > 0 &&
                        ephem.bans > 0;
  const bool static_dies = frozen.attempts_after_last_fault > 0 &&
                           frozen.successes_after_last_fault == 0 &&
                           frozen.bans > 0;

  // ---- frontier: the other methods through the same ban story --------
  std::vector<measure::ChaosCellOptions> baselines(3);
  baselines[0].method = measure::Method::kScholarCloud;
  baselines[0].fleet = true;
  baselines[1].method = measure::Method::kTor;
  baselines[1].fleet = false;
  baselines[2].method = measure::Method::kShadowsocks;
  baselines[2].fleet = false;
  for (auto& c : baselines) {
    c.users = users;
    c.script = wave;
    c.duration = duration_s * sim::kSecond;
    // Testbed baselines: land the wave on the method's GFW-visible border
    // IP (one ban exhausts their static set; the rest go unhandled).
    c.ban_method_endpoint = true;
  }
  const auto base_results =
      measure::runCells(baselines, threads, measure::runChaosCell);

  // Dedicated servers bill for the whole cell whether or not they answer.
  // Server counts per world: SC fleet = fleet_size endpoints + 1 domestic
  // proxy; Tor = meek front + bridge + exit; Shadowsocks = 1 server.
  const serverless::CostRates rates;
  const double cell_s = static_cast<double>(duration_s);
  const double fleet_servers = static_cast<double>(baselines[0].fleet_size) + 1;
  const double method_servers[3] = {fleet_servers, 3.0, 1.0};

  std::vector<FrontierRow> frontier;
  {
    FrontierRow r;
    r.label = "serverless";
    r.endpoint_seconds = ephem.endpoint_seconds;
    r.cost_units = ephem.cost_units;
    r.blocked_rate = 1.0 - ephem.success_ratio;
    r.dead_rate = ephem.attempts_after_last_fault == 0
                      ? 1.0
                      : 1.0 - static_cast<double>(
                                  ephem.successes_after_last_fault) /
                                  ephem.attempts_after_last_fault;
    frontier.push_back(r);
  }
  const char* base_labels[3] = {"scholarcloud", "tor", "shadowsocks"};
  for (std::size_t i = 0; i < base_results.size(); ++i) {
    FrontierRow r;
    r.label = base_labels[i];
    r.endpoint_seconds = method_servers[i] * cell_s;
    r.cost_units = r.endpoint_seconds * rates.per_endpoint_second;
    r.blocked_rate = 1.0 - base_results[i].success_ratio;
    r.dead_rate = base_results[i].unrecovered > 0 ? 1.0 : r.blocked_rate;
    r.unrecovered = base_results[i].unrecovered;
    frontier.push_back(r);
  }
  std::printf("  frontier (cost units vs blocked rate, same ban wave):\n");
  for (const auto& r : frontier)
    std::printf("    %-12s cost %7.1f  blocked %.0f%%  unrecovered %d\n",
                r.label, r.cost_units, r.blocked_rate * 100, r.unrecovered);

  // ---- cold starts ---------------------------------------------------
  const serverless::ProviderOptions pdefaults;
  const double cold_min_ms = sim::toMillis(pdefaults.cold_start_min);
  const double cold_max_ms = sim::toMillis(pdefaults.cold_start_max);
  const bool cold_ok = ephem.cold_starts > 0 &&
                       ephem.cold_start_mean_ms >= cold_min_ms &&
                       ephem.cold_start_mean_ms <= cold_max_ms &&
                       ephem.cold_start_max_ms <= cold_max_ms;
  std::printf("  cold starts: %llu drawn, mean %.0fms max %.0fms "
              "(bounds [%.0f, %.0f]) %s\n",
              static_cast<unsigned long long>(ephem.cold_starts),
              ephem.cold_start_mean_ms, ephem.cold_start_max_ms, cold_min_ms,
              cold_max_ms, cold_ok ? "ok" : "OUT OF BOUNDS");
  std::printf("  parallel %s (%.2fs vs %.2fs serial on %u threads)\n",
              match ? "matches" : "DIFFERS", identity.parallel_s,
              identity.serial_s, threads);

  bench::JsonArtifact jw("BENCH_serverless.json");
  if (!jw.ok()) return 1;
  jw.beginObject("config")
      .field("users", users)
      .field("day_s", day_s)
      .field("bans", bans)
      .field("duration_s", duration_s)
      .field("threads", threads)
      .field("per_endpoint_second", rates.per_endpoint_second)
      .field("per_invocation", rates.per_invocation)
      .endObject();
  jw.beginArray("ban_wave");
  for (const auto* cell : {&ephem, &frozen}) {
    jw.beginObject()
        .field("mode", cell == &ephem ? "ephemeral" : "static")
        .field("attempts", cell->attempts)
        .field("successes", cell->successes)
        .field("success_ratio", cell->success_ratio)
        .field("attempts_after_last_fault", cell->attempts_after_last_fault)
        .field("successes_after_last_fault", cell->successes_after_last_fault)
        .field("spawns", cell->spawns)
        .field("bans", cell->bans)
        .field("reaps", cell->reaps)
        .field("final_live", cell->final_live)
        .field("final_connected", cell->final_connected)
        .field("endpoint_seconds", cell->endpoint_seconds)
        .field("cost_units", cell->cost_units)
        .field("invocations", cell->invocations)
        .field("border_bytes", cell->border_bytes)
        .endObject();
  }
  jw.endArray();
  jw.beginArray("frontier");
  for (const auto& r : frontier) {
    jw.beginObject()
        .field("method", r.label)
        .field("endpoint_seconds", r.endpoint_seconds)
        .field("cost_units", r.cost_units)
        .field("blocked_rate", r.blocked_rate)
        .field("dead_rate", r.dead_rate)
        .field("unrecovered", r.unrecovered)
        .endObject();
  }
  jw.endArray();
  jw.beginObject("cold_start")
      .field("count", ephem.cold_starts)
      .field("mean_ms", ephem.cold_start_mean_ms)
      .field("max_ms", ephem.cold_start_max_ms)
      .field("bound_min_ms", cold_min_ms)
      .field("bound_max_ms", cold_max_ms)
      .endObject();
  jw.beginObject("checks")
      .field("survives_ban_wave", survives)
      .field("static_baseline_dies", static_dies)
      .field("parallel_matches_serial", match)
      .field("cold_start_within_bounds", cold_ok)
      .field("frontier_methods", static_cast<int>(frontier.size()))
      .endObject();
  jw.close();
  return match && survives && static_dies ? 0 : 1;
}
