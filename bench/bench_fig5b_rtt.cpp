// Figure 5b: round-trip time through each access method, sampled by small
// single-object probes interleaved with the PLT campaign (§4.3 uses RTT to
// explain why first-time PLT correlates with path length).
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr(80);
  std::printf("Figure 5b — round-trip time (%d accesses per method)\n",
              accesses);

  CampaignOptions copts;
  copts.accesses = accesses;  // RTT probes on: CampaignOptions' default
  auto methods = bench::paperMethods();
  methods.push_back(Method::kServerless);
  const auto sweep =
      bench::runFigureCells(bench::methodTrials(methods, copts), args);

  Report report("Fig. 5b: RTT ms (paper vs measured probe)",
                {"paper", "measured", "min", "max"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto& c = sweep.campaigns[i];
    report.addRow({methodName(bench::paperMethods()[i]),
                   {PaperNumbers::rtt[i], c.rtt_ms.mean, c.rtt_ms.min,
                    c.rtt_ms.max}});
  }
  {
    const auto& c = sweep.campaigns.back();
    report.addRow(
        {"Serverless*", {0.0, c.rtt_ms.mean, c.rtt_ms.min, c.rtt_ms.max}});
  }
  report.print();
  std::printf("\nShape check: Tor's multi-relay path has the longest RTT; "
              "the single-hop\ntunnels cluster near the raw trans-Pacific "
              "round trip.\n"
              "(* measured only — serverless postdates the paper.)\n");
  return sweep.exitCode();
}
