// Span-level latency attribution over the fig. 5 method matrix:
//
//   1. the five-method campaign with span recording on, each access's PLT
//      partitioned by phase (DNS, TCP, TLS, tunnel handshake, GFW traversal,
//      proxy hop, cache, upstream fetch, self) via the critical-path
//      analyzer — the per-phase sums must equal end-to-end PLT exactly;
//   2. the SLO engine sampling every access, its burn-rate alert counters
//      reported from the registry;
//   3. span-recording overhead: the same campaign with spans off vs on,
//      wall clock and simulator events/sec;
//   4. serial vs parallel trial cells with spans on: the JSONL span export
//      of every cell must be byte-identical at 1 thread and N threads.
//
// Writes BENCH_obs.json to the working directory. Env knobs (CI smoke
// passes tiny values):
//   SC_BENCH_ACCESSES   accesses per method   (default 120)
//   SC_BENCH_THREADS    parallel workers      (default hardware)
#include <map>

#include "bench_common.h"
#include "measure/parallel.h"
#include "obs/critpath.h"
#include "obs/slo.h"

namespace {

using sc::measure::Method;

struct MethodCell {
  Method method = Method::kDirect;
  std::uint32_t tag = 0;
  sc::measure::CampaignResult result;
  sc::obs::PhaseBreakdown breakdown;
};

struct SloCounters {
  std::uint64_t samples = 0, errors = 0;
  std::uint64_t pages = 0, tickets = 0, clears = 0;
};

// One campaign per method on a shared testbed (the fig. 5 shape), spans on,
// SLO engine sampling every access. Returns the per-method cells plus the
// whole world's span set attributed and grouped by measure tag.
std::vector<MethodCell> runAttributedSweep(int accesses, SloCounters& slo) {
  sc::measure::TestbedOptions topts;
  topts.spans = true;
  topts.span_reserve = 1 << 16;
  sc::measure::Testbed tb(topts);
  tb.hub().installSlo();

  std::vector<MethodCell> cells;
  std::uint32_t tag = 100;
  sc::measure::CampaignOptions copts;
  copts.accesses = accesses;
  copts.measure_rtt = false;
  for (const auto method : sc::bench::paperMethods()) {
    MethodCell cell;
    cell.method = method;
    cell.tag = tag;
    cell.result = sc::measure::runAccessCampaign(tb, method, tag++, copts);
    if (!cell.result.setup_ok)
      std::fprintf(stderr, "WARNING: %s setup failed\n",
                   sc::measure::methodName(method));
    cells.push_back(std::move(cell));
  }

  // Attribute every access tree once, then fold per measure tag.
  const auto& spans = tb.hub().spans().spans();
  const auto attrs = sc::obs::attributeAll(spans);
  std::map<std::uint32_t, std::vector<sc::obs::Attribution>> by_tag;
  for (const auto& attr : attrs)
    by_tag[spans[static_cast<std::size_t>(attr.access - 1)].tag].push_back(
        attr);
  for (auto& cell : cells)
    cell.breakdown = sc::obs::aggregateBreakdowns(by_tag[cell.tag]);

  auto& reg = tb.hub().registry();
  slo.samples = reg.counter("sc.slo.samples")->value();
  slo.errors = reg.counter("sc.slo.errors")->value();
  slo.pages = reg.counter("sc.slo.alerts_page")->value();
  slo.tickets = reg.counter("sc.slo.alerts_ticket")->value();
  slo.clears = reg.counter("sc.slo.alerts_clear")->value();
  return cells;
}

// The overhead probe: the same single-method campaign on fresh same-seed
// testbeds, spans off then on. Events/sec over the simulator's own event
// count isolates the hot-path cost of the disabled/enabled span branches.
struct OverheadProbe {
  double wall_off_s = 0, wall_on_s = 0;
  std::uint64_t events_off = 0, events_on = 0;
  double ratio = 0;  // wall_on / wall_off (1.0 = free)
  std::uint64_t spans_recorded = 0;
};

OverheadProbe runOverheadProbe(int accesses) {
  OverheadProbe probe;
  sc::measure::CampaignOptions copts;
  copts.accesses = accesses;
  copts.measure_rtt = false;
  {
    sc::measure::Testbed tb;  // spans off (the default)
    const sc::bench::Stopwatch clock;
    sc::measure::runAccessCampaign(tb, Method::kScholarCloud, 300, copts);
    probe.wall_off_s = clock.seconds();
    probe.events_off = tb.sim().eventsExecuted();
  }
  {
    sc::measure::TestbedOptions topts;
    topts.spans = true;
    sc::measure::Testbed tb(topts);
    const sc::bench::Stopwatch clock;
    sc::measure::runAccessCampaign(tb, Method::kScholarCloud, 300, copts);
    probe.wall_on_s = clock.seconds();
    probe.events_on = tb.sim().eventsExecuted();
    probe.spans_recorded = tb.hub().spans().spans().size();
  }
  probe.ratio = probe.wall_off_s > 0 ? probe.wall_on_s / probe.wall_off_s : 0;
  return probe;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sc;
  bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr();
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Span attribution — per-phase PLT breakdown, fig. 5 methods\n");

  // ---- 1+2: attributed sweep with the SLO engine sampling ----
  SloCounters slo;
  const auto cells = runAttributedSweep(accesses, slo);
  bool all_sums_match = true;
  for (const auto& cell : cells) {
    const auto& b = cell.breakdown;
    all_sums_match = all_sums_match && b.sumsMatch();
    std::printf("  %-12s %3llu accesses, plt %.2fs, dominant %s%s\n",
                measure::methodName(cell.method),
                static_cast<unsigned long long>(b.accesses),
                sim::toSeconds(b.total_plt), obs::spanKindName(b.dominant()),
                b.sumsMatch() ? "" : "  [SUM MISMATCH]");
  }

  // ---- 3: overhead ----
  const auto probe = runOverheadProbe(accesses);
  std::printf("  overhead: spans off %.2fs, on %.2fs (ratio %.3f, %llu spans)\n",
              probe.wall_off_s, probe.wall_on_s, probe.ratio,
              static_cast<unsigned long long>(probe.spans_recorded));

  // ---- 4: serial vs parallel byte identity ----
  std::vector<measure::CampaignTrial> trials;
  std::uint32_t trial_tag = 200;
  for (const auto method : bench::paperMethods()) {
    measure::CampaignTrial trial;
    trial.method = method;
    trial.tag = trial_tag++;
    trial.campaign.accesses = std::min(accesses, 12);
    trial.campaign.measure_rtt = false;
    trial.testbed.seed = 7;
    trial.testbed.spans = true;
    trials.push_back(trial);
  }
  const auto identity = bench::checkParallelIdentity(
      threads,
      [&](unsigned t) {
        return measure::runCells(trials, t, measure::runCampaignTrial);
      },
      [](const measure::CampaignTrialResult& x,
         const measure::CampaignTrialResult& y) {
        return x.spans_jsonl == y.spans_jsonl && !x.spans_jsonl.empty();
      });
  const bool identical = identity.match;
  std::uint64_t serial_bytes = 0;
  for (const auto& trial : identity.serial)
    serial_bytes += trial.spans_jsonl.size();
  std::printf("  identity: %zu cells on %u threads, span exports %s\n",
              trials.size(), threads,
              identical ? "match" : "DIFFER");

  // ---- dump ----
  bench::JsonArtifact jw("BENCH_obs.json");
  if (!jw.ok()) return 1;
  jw.field("accesses_per_method", accesses);
  jw.beginArray("methods");
  for (const auto& cell : cells) {
    const auto& b = cell.breakdown;
    jw.beginObject();
    jw.field("method", measure::methodName(cell.method))
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
  jw.beginObject("overhead")
      .field("wall_spans_off_s", probe.wall_off_s)
      .field("wall_spans_on_s", probe.wall_on_s)
      .field("events_spans_off", probe.events_off)
      .field("events_spans_on", probe.events_on)
      .field("spans_recorded", probe.spans_recorded)
      .field("overhead_ratio", probe.ratio)
      .endObject();
  jw.beginObject("identity")
      .field("cells", trials.size())
      .field("threads", threads)
      .field("serial_span_bytes", serial_bytes)
      .field("parallel_matches_serial", identical)
      .endObject();
  jw.field("all_phase_sums_match", all_sums_match);
  jw.close();
  return (all_sums_match && identical) ? 0 : 1;
}
