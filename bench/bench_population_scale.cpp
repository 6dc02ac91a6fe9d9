// Hybrid-fidelity population engine (ROADMAP item 1): validation, scale,
// and contention coupling. Writes BENCH_population.json.
//
// Stages:
//   1. validation — flow-level closed forms vs a packet-level Testbed
//      campaign per method, under the DESIGN.md §12 tolerances;
//   2. scale — a >= 1,000,000-scholar flow-level diurnal campaign (a full
//      simulated day, time-compressed) over a live fleet world, reporting
//      accesses/second of wall time;
//   3. hybrid — the same packet-level cohort with and without the
//      background population, showing the background warming the shared
//      cache and occupying fleet streams the cohort contends for;
//   4. determinism — every cell re-run serially and compared digest-for-
//      digest against the parallel run.
//
// Env knobs (CI smoke passes tiny values):
//   SC_BENCH_POP_SCHOLARS             scale-stage population (default 1e6)
//   SC_BENCH_POP_DAY_S                sim-seconds the compressed day spans
//                                     (default 60)
//   SC_BENCH_POP_VALIDATION_ACCESSES  packet accesses per method (default 40)
//   SC_BENCH_THREADS                  parallel workers (default hardware)
#include <cmath>

#include "bench_common.h"
#include "measure/parallel.h"
#include "measure/population_scenario.h"
#include "population/flow_model.h"

namespace {

bool samePopulationCell(const sc::measure::PopulationCellResult& x,
                        const sc::measure::PopulationCellResult& y) {
  return x.background_digest == y.background_digest &&
         x.cohort_attempts == y.cohort_attempts &&
         x.cohort_successes == y.cohort_successes &&
         x.cache_hits == y.cache_hits && x.metrics_jsonl == y.metrics_jsonl;
}

}  // namespace

int main() {
  using namespace sc;
  using population::Method;

  const int scholars = bench::intFromEnv("SC_BENCH_POP_SCHOLARS", 1000000);
  const int day_s = bench::intFromEnv("SC_BENCH_POP_DAY_S", 60);
  const int val_accesses =
      bench::intFromEnv("SC_BENCH_POP_VALIDATION_ACCESSES", 40);
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Population scale — %d flow-level scholars over the packet "
              "testbed (%u threads)\n",
              scholars, threads);

  // ---- 1. flow-vs-packet validation ------------------------------------
  const Method kMethods[] = {Method::kNativeVpn, Method::kOpenVpn,
                             Method::kTor, Method::kShadowsocks,
                             Method::kScholarCloud};
  std::vector<measure::ValidationCellOptions> vcells;
  for (const Method m : kMethods) {
    measure::ValidationCellOptions v;
    v.method = m;
    v.accesses = val_accesses;
    vcells.push_back(v);
  }
  const auto validations =
      measure::runCells(vcells, threads, measure::runValidationCell);
  bool flow_matches_packet = true;
  std::printf("  validation (packet -> flow, %d accesses/method):\n",
              val_accesses);
  for (const auto& v : validations) {
    flow_matches_packet = flow_matches_packet && v.pass;
    std::printf(
        "    %-12s PLT sub %.2f->%.2fs (%.0f%%), first %.2f->%.2fs (%.0f%%), "
        "RTT %.0f->%.0fms (%.0f%%), PLR %.2f->%.2f%% (|%.2f|pp) %s\n",
        population::methodName(v.method), v.packet_plt_sub_s, v.flow_plt_sub_s,
        v.plt_sub_rel_err * 100, v.packet_plt_first_s, v.flow_plt_first_s,
        v.plt_first_rel_err * 100, v.packet_rtt_ms, v.flow_rtt_ms,
        v.rtt_rel_err * 100, v.packet_plr_pct, v.flow_plr_pct,
        v.plr_abs_err_pp, v.pass ? "ok" : "FAIL");
  }

  // ---- 2. the 1M-scholar diurnal day -----------------------------------
  measure::PopulationCellOptions scale;
  scale.seed = 2015;
  scale.scholars = static_cast<std::uint64_t>(scholars);
  scale.sc_adoption = 0.25;  // post-deployment: a quarter of the blocked 74%
  scale.scheduler.day_phase = 0;
  scale.scheduler.time_scale = 86400.0 / day_s;  // whole day in day_s sim-s
  scale.duration = day_s * sim::kSecond;
  scale.cohort_users = 0;

  const bench::Stopwatch scale_clock;
  const auto scale_result = measure::runPopulationCell(scale);
  const double scale_wall_s = scale_clock.seconds();
  const auto& bg = scale_result.background_stats;
  const double accesses_per_sec =
      scale_wall_s <= 0 ? 0 : static_cast<double>(bg.arrivals) / scale_wall_s;
  const bool scale_completed =
      scholars >= 1000000 ? bg.arrivals > 0 && bg.ticks > 0 : bg.arrivals > 0;
  std::printf(
      "  scale: %llu accesses (%llu blocked, %llu border, %llu leases) in "
      "%.2fs wall = %.3g accesses/s\n",
      static_cast<unsigned long long>(bg.arrivals),
      static_cast<unsigned long long>(bg.blocked),
      static_cast<unsigned long long>(bg.border_crossings),
      static_cast<unsigned long long>(bg.fleet_leases), scale_wall_s,
      accesses_per_sec);
  for (std::size_t m = 0; m < population::kMethodCount; ++m) {
    const auto& ms = bg.by_method[m];
    if (ms.accesses == 0) continue;
    std::printf("    %-12s %9llu accesses, mean PLT %6.2fs, RTT %5.0fms, "
                "PLR %.2f%%\n",
                population::methodName(static_cast<Method>(m)),
                static_cast<unsigned long long>(ms.accesses),
                ms.ok == 0 ? 0.0 : ms.plt_sum_s / static_cast<double>(ms.ok),
                ms.ok == 0 ? 0.0 : ms.rtt_sum_ms / static_cast<double>(ms.ok),
                ms.ok == 0 ? 0.0
                           : ms.plr_sum_pct / static_cast<double>(ms.ok));
  }

  // ---- 3. hybrid contention: cohort alone vs cohort + background -------
  std::vector<measure::PopulationCellOptions> hybrid_cells;
  {
    measure::PopulationCellOptions h;
    h.seed = 7;
    h.scholars = 200000;
    h.sc_adoption = 0.25;
    h.cohort_users = 4;
    h.duration = 60 * sim::kSecond;
    h.scheduler.day_phase = 20 * sim::kHour;  // evening peak
    h.autoscale = true;
    h.background = false;
    hybrid_cells.push_back(h);  // control: cohort alone
    h.background = true;
    hybrid_cells.push_back(h);  // cohort + population
    // Determinism workload for stage 4: two more background worlds at
    // different seeds/phases.
    h.seed = 8;
    h.cohort_users = 2;
    h.scheduler.day_phase = 9 * sim::kHour;
    hybrid_cells.push_back(h);
    h.seed = 9;
    h.scholars = 50000;
    h.sc_adoption = 0.0;
    hybrid_cells.push_back(h);
  }
  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return measure::runCells(hybrid_cells, t, measure::runPopulationCell);
      },
      samePopulationCell);
  const auto& hybrid = identity.parallel;
  const auto& control = hybrid[0];
  const auto& coupled = hybrid[1];
  const bool background_warms_cache = coupled.cache_hits > control.cache_hits;
  const bool background_drives_fleet =
      coupled.background_stats.fleet_leases > 0 &&
      coupled.peak_active_streams > control.peak_active_streams;
  const bool cohort_survives_population =
      coupled.cohort_successes > 0 &&
      coupled.cohort_successes * 2 > coupled.cohort_attempts;
  std::printf(
      "  hybrid: cohort alone %d/%d ok, PLT %.3fs, peak streams %.0f | "
      "with %llu-scholar background %d/%d ok, PLT %.3fs, peak streams %.0f, "
      "cache hits %llu->%llu, fleet %d->%d\n",
      control.cohort_successes, control.cohort_attempts,
      control.cohort_plt_mean_s, control.peak_active_streams,
      static_cast<unsigned long long>(hybrid_cells[1].scholars),
      coupled.cohort_successes, coupled.cohort_attempts,
      coupled.cohort_plt_mean_s, coupled.peak_active_streams,
      static_cast<unsigned long long>(control.cache_hits),
      static_cast<unsigned long long>(coupled.cache_hits),
      control.final_fleet_size, coupled.final_fleet_size);

  // ---- 4. serial-vs-parallel byte identity (stage 3 ran both) ----------
  const bool parallel_matches_serial = identity.match;
  std::printf("  determinism: parallel %s serial (digest %016llx)\n",
              parallel_matches_serial ? "matches" : "DIFFERS",
              static_cast<unsigned long long>(coupled.background_digest));

  bench::JsonArtifact jw("BENCH_population.json");
  if (!jw.ok()) return 1;
  jw.beginObject("config")
      .field("scholars", scholars)
      .field("day_s", day_s)
      .field("validation_accesses", val_accesses)
      .field("threads", threads)
      .endObject();
  jw.beginArray("validation");
  for (const auto& v : validations) {
    jw.beginObject()
        .field("method", population::methodName(v.method))
        .field("packet_plt_first_s", v.packet_plt_first_s)
        .field("packet_plt_sub_s", v.packet_plt_sub_s)
        .field("packet_rtt_ms", v.packet_rtt_ms)
        .field("packet_plr_pct", v.packet_plr_pct)
        .field("flow_plt_first_s", v.flow_plt_first_s)
        .field("flow_plt_sub_s", v.flow_plt_sub_s)
        .field("flow_rtt_ms", v.flow_rtt_ms)
        .field("flow_plr_pct", v.flow_plr_pct)
        .field("plt_first_rel_err", v.plt_first_rel_err)
        .field("plt_sub_rel_err", v.plt_sub_rel_err)
        .field("rtt_rel_err", v.rtt_rel_err)
        .field("plr_abs_err_pp", v.plr_abs_err_pp)
        .field("pass", v.pass)
        .endObject();
  }
  jw.endArray();
  jw.beginObject("scale")
      .field("scholars", scholars)
      .field("arrivals", bg.arrivals)
      .field("blocked", bg.blocked)
      .field("border_crossings", bg.border_crossings)
      .field("fleet_leases", bg.fleet_leases)
      .field("cache_hits", scale_result.cache_hits)
      .field("wall_s", scale_wall_s)
      .field("accesses_per_sec", accesses_per_sec)
      .field("digest", scale_result.background_digest)
      .endObject();
  jw.beginObject("hybrid")
      .field("control_cohort_plt_s", control.cohort_plt_mean_s)
      .field("coupled_cohort_plt_s", coupled.cohort_plt_mean_s)
      .field("control_cache_hits", control.cache_hits)
      .field("coupled_cache_hits", coupled.cache_hits)
      .field("control_peak_streams", control.peak_active_streams)
      .field("coupled_peak_streams", coupled.peak_active_streams)
      .field("control_fleet_size", control.final_fleet_size)
      .field("coupled_fleet_size", coupled.final_fleet_size)
      .field("background_leases", coupled.background_stats.fleet_leases)
      .endObject();
  jw.beginObject("checks")
      .field("flow_matches_packet", flow_matches_packet)
      .field("scale_completed", scale_completed)
      .field("background_warms_cache", background_warms_cache)
      .field("background_drives_fleet_load", background_drives_fleet)
      .field("cohort_survives_population", cohort_survives_population)
      .field("parallel_matches_serial", parallel_matches_serial)
      .endObject();
  jw.close();

  const bool ok = flow_matches_packet && scale_completed &&
                  background_warms_cache && background_drives_fleet &&
                  cohort_survives_population && parallel_matches_serial;
  std::printf("  %s\n", ok ? "all checks pass" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
