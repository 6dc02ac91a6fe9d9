// Chaos resilience: recovery-time distribution per method x fault script.
//
// Grid: every canned fault script (semester VPN ban, Tor bridge probe wave,
// Shadowsocks endpoint discovery) against the fleet-backed ScholarCloud
// world plus three baselines (native VPN, Tor, Shadowsocks). Each cell is an
// independent chaos world (runChaosCell) fanned across the ParallelRunner;
// the whole grid re-runs serially and must match byte for byte (trace +
// metrics), so the bench doubles as the chaos determinism check.
//
// Headline checks written to BENCH_chaos.json:
//   - sc_recovers_all_scripts: the fleet-backed deployment ends every script
//     with zero unrecovered faults (finite recovery everywhere);
//   - baseline_permanent_outage: at least one baseline never recovers under
//     the protocol-ban script (the paper's "VPNs go dark" era, replayed).
//
// Env knobs (CI smoke passes tiny values):
//   SC_BENCH_CHAOS_USERS       users per cell             (default 3)
//   SC_BENCH_CHAOS_FLEET       fleet size (SC cells)      (default 3)
//   SC_BENCH_CHAOS_DAY_S       compressed "day", seconds  (default 10)
//   SC_BENCH_CHAOS_DURATION_S  sim duration, seconds      (default 120)
//   SC_BENCH_THREADS           parallel workers           (default hardware)
#include "bench_common.h"
#include "chaos/scripts.h"
#include "measure/chaos_scenario.h"
#include "measure/parallel.h"

namespace {

bool sameCell(const sc::measure::ChaosCellResult& x,
              const sc::measure::ChaosCellResult& y) {
  return x.attempts == y.attempts && x.successes == y.successes &&
         x.impacted == y.impacted && x.recovered == y.recovered &&
         x.requests_lost == y.requests_lost &&
         x.metrics_jsonl == y.metrics_jsonl &&
         x.trace_jsonl == y.trace_jsonl;
}

}  // namespace

int main() {
  using namespace sc;
  const int users = bench::intFromEnv("SC_BENCH_CHAOS_USERS", 3);
  const int fleet_size = bench::intFromEnv("SC_BENCH_CHAOS_FLEET", 3);
  const int day_s = bench::intFromEnv("SC_BENCH_CHAOS_DAY_S", 10);
  const int duration_s = bench::intFromEnv("SC_BENCH_CHAOS_DURATION_S", 120);
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Chaos resilience — recovery time per method x fault script\n");

  const auto scripts = chaos::cannedScripts(day_s * sim::kSecond);
  struct Row {
    const char* label;
    measure::Method method;
    bool fleet;
  };
  const std::vector<Row> rows = {
      {"sc_fleet", measure::Method::kScholarCloud, true},
      {"native_vpn", measure::Method::kNativeVpn, false},
      {"tor", measure::Method::kTor, false},
      {"shadowsocks", measure::Method::kShadowsocks, false},
  };

  std::vector<measure::ChaosCellOptions> cells;
  for (const auto& script : scripts) {
    for (const Row& row : rows) {
      measure::ChaosCellOptions c;
      c.method = row.method;
      c.fleet = row.fleet;
      c.fleet_size = fleet_size;
      c.users = users;
      c.script = script.script;
      c.duration = duration_s * sim::kSecond;
      cells.push_back(std::move(c));
    }
  }

  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return measure::runCells(cells, t, measure::runChaosCell);
      },
      sameCell);
  const auto& results = identity.parallel;
  const bool match = identity.match;

  bool sc_recovers_all = true;
  bool baseline_dark = false;
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& cell = results[s * rows.size() + r];
      if (rows[r].fleet) {
        if (cell.unrecovered > 0 || cell.impacted == 0)
          sc_recovers_all = false;
      } else if (scripts[s].name == "vpn_ban" && cell.unrecovered > 0) {
        baseline_dark = true;
      }
      std::printf(
          "  %-12s %-12s %3d/%3d ok  faults %d impacted %d recovered %d "
          "unrecovered %d  detect %.2fs recover %.2fs (max %.2fs) lost %llu\n",
          scripts[s].name.c_str(), rows[r].label, cell.successes,
          cell.attempts, cell.faults, cell.impacted, cell.recovered,
          cell.unrecovered, cell.mean_detect_s, cell.mean_recover_s,
          cell.max_recover_s,
          static_cast<unsigned long long>(cell.requests_lost));
    }
  }
  std::printf("  parallel %s (%.2fs vs %.2fs serial on %u threads)\n",
              match ? "matches" : "DIFFERS", identity.parallel_s,
              identity.serial_s, threads);

  bench::JsonArtifact jw("BENCH_chaos.json");
  if (!jw.ok()) return 1;
  jw.beginObject("config")
      .field("users", users)
      .field("fleet_size", fleet_size)
      .field("day_s", day_s)
      .field("duration_s", duration_s)
      .field("threads", threads)
      .endObject();
  jw.beginArray("cells");
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& cell = results[s * rows.size() + r];
      jw.beginObject()
          .field("script", scripts[s].name)
          .field("method", rows[r].label)
          .field("attempts", cell.attempts)
          .field("successes", cell.successes)
          .field("success_ratio", cell.success_ratio)
          .field("faults", cell.faults)
          .field("impacted", cell.impacted)
          .field("recovered", cell.recovered)
          .field("unrecovered", cell.unrecovered)
          .field("mean_detect_s", cell.mean_detect_s)
          .field("mean_recover_s", cell.mean_recover_s)
          .field("max_recover_s", cell.max_recover_s)
          .field("requests_lost", cell.requests_lost)
          .field("respawns", cell.respawns)
          .endObject();
    }
  }
  jw.endArray();
  jw.beginObject("checks")
      .field("sc_recovers_all_scripts", sc_recovers_all)
      .field("baseline_permanent_outage", baseline_dark)
      .field("parallel_matches_serial", match)
      .endObject();
  jw.close();
  return match ? 0 : 1;
}
