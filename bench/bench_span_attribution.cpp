// Span-level latency attribution over the fig. 5 method matrix:
//
//   1. one campaign per method with span recording on, each access's PLT
//      partitioned by phase (DNS, TCP, TLS, tunnel handshake, GFW traversal,
//      proxy hop, cache, upstream fetch, self) via the critical-path
//      analyzer — the per-phase sums must equal end-to-end PLT exactly;
//   2. the SLO engine sampling every access, its burn-rate alert counters
//      read from each cell's registry and summed;
//   3. serial vs parallel: the same cells re-run on one thread must export
//      byte-identical JSONL span sets.
//
// Every method is its own CampaignTrial cell (seed 42, tag 100+i), so no
// method's breakdown depends on what ran before it. Writes BENCH_obs.json to
// the working directory and exits 1, naming the method, when a campaign
// failed to set up or recorded no successful access. Env knobs (CI smoke
// passes tiny values):
//   SC_BENCH_ACCESSES   accesses per method   (default 120)
//   SC_BENCH_THREADS    parallel workers      (default hardware)
#include <sstream>

#include "bench_common.h"
#include "obs/critpath.h"
#include "obs/slo.h"

namespace {

struct SloCounters {
  std::uint64_t samples = 0, errors = 0;
  std::uint64_t pages = 0, tickets = 0, clears = 0;
};

struct MethodCell {
  sc::measure::CampaignResult result;
  sc::obs::PhaseBreakdown breakdown;
  SloCounters slo;
  std::string spans_jsonl;
};

// One method's campaign in its own world, spans on and the SLO engine
// sampling every access; its access trees are attributed before the world
// dies.
MethodCell runAttributedCell(const sc::measure::CampaignTrial& trial,
                             sc::measure::Testbed& tb) {
  tb.hub().installSlo();
  MethodCell cell;
  cell.result = sc::measure::runAccessCampaign(tb, trial.method, trial.tag,
                                               trial.campaign);
  const auto& spans = tb.hub().spans().spans();
  cell.breakdown = sc::obs::aggregateBreakdowns(sc::obs::attributeAll(spans));
  auto& reg = tb.hub().registry();
  cell.slo = {reg.counter("sc.slo.samples")->value(),
              reg.counter("sc.slo.errors")->value(),
              reg.counter("sc.slo.alerts_page")->value(),
              reg.counter("sc.slo.alerts_ticket")->value(),
              reg.counter("sc.slo.alerts_clear")->value()};
  std::ostringstream out;
  sc::obs::writeSpansJsonl(spans, out);
  cell.spans_jsonl = std::move(out).str();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sc;
  bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr();
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Span attribution — per-phase PLT breakdown, fig. 5 methods\n");

  // ---- 1-3: one attributed cell per method, on `threads` workers and
  // then on one; the report reads the parallel run ----
  measure::CampaignOptions copts;
  copts.accesses = accesses;
  copts.measure_rtt = false;
  auto trials = bench::methodTrials(bench::paperMethods(), copts);
  for (auto& trial : trials) trial.testbed.spans = true;
  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return bench::runTrialCells(trials, t, runAttributedCell);
      },
      [](const MethodCell& x, const MethodCell& y) {
        return x.spans_jsonl == y.spans_jsonl && !x.spans_jsonl.empty();
      });
  const auto& cells = identity.parallel;

  bench::SweepResult rows;
  SloCounters slo;
  bool all_sums_match = true;
  for (const auto& cell : cells) {
    const auto& b = cell.breakdown;
    rows.campaigns.push_back(cell.result);
    slo.samples += cell.slo.samples;
    slo.errors += cell.slo.errors;
    slo.pages += cell.slo.pages;
    slo.tickets += cell.slo.tickets;
    slo.clears += cell.slo.clears;
    all_sums_match = all_sums_match && b.sumsMatch();
    std::printf("  %-12s %3llu accesses, plt %.2fs, dominant %s%s\n",
                measure::methodName(cell.result.method),
                static_cast<unsigned long long>(b.accesses),
                sim::toSeconds(b.total_plt), obs::spanKindName(b.dominant()),
                b.sumsMatch() ? "" : "  [SUM MISMATCH]");
  }
  std::uint64_t serial_bytes = 0;
  for (const auto& cell : identity.serial)
    serial_bytes += cell.spans_jsonl.size();
  std::printf("  identity: %zu cells on %u threads, span exports %s\n",
              trials.size(), threads, identity.match ? "match" : "DIFFER");

  // ---- dump ----
  bench::JsonArtifact jw("BENCH_obs.json");
  if (!jw.ok()) return 1;
  jw.field("accesses_per_method", accesses);
  jw.beginArray("methods");
  for (const auto& cell : cells) {
    const auto& b = cell.breakdown;
    jw.beginObject();
    jw.field("method", measure::methodName(cell.result.method))
        .field("accesses", b.accesses)
        .field("ok_accesses", b.ok_accesses)
        .field("plt_total_s", sim::toSeconds(b.total_plt))
        .field("self_s", sim::toSeconds(b.total_self))
        .field("dominant_phase", obs::spanKindName(b.dominant()))
        .field("phase_sums_match_plt", b.sumsMatch());
    jw.beginObject("phases");
    for (std::size_t k = 0; k < obs::kSpanKindCount; ++k) {
      const auto kind = static_cast<obs::SpanKind>(k);
      if (kind == obs::SpanKind::kAccess) continue;  // the whole, not a part
      jw.beginObject(obs::spanKindName(kind))
          .field("seconds", sim::toSeconds(b.times[k]))
          .field("count", b.counts[k])
          .field("errors", b.errors[k])
          .endObject();
    }
    jw.endObject();
    jw.endObject();
  }
  jw.endArray();
  jw.beginObject("slo")
      .field("samples", slo.samples)
      .field("errors", slo.errors)
      .field("alerts_page", slo.pages)
      .field("alerts_ticket", slo.tickets)
      .field("alerts_clear", slo.clears)
      .endObject();
  jw.beginObject("identity")
      .field("cells", trials.size())
      .field("threads", threads)
      .field("serial_span_bytes", serial_bytes)
      .field("parallel_matches_serial", identity.match)
      .endObject();
  jw.field("all_phase_sums_match", all_sums_match);
  jw.close();
  const int row_status = rows.exitCode();
  return (all_sums_match && identity.match && row_status == 0) ? 0 : 1;
}
