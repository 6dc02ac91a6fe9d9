// Figure 5c: packet loss rate — the paper's robustness-to-censorship metric.
// Includes the §4.3 US-side control (Tor/Shadowsocks from the US lose <0.1%,
// proving the GFW, not the protocols, causes the loss).
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr();
  std::printf("Figure 5c — packet loss rate (%d accesses per method)\n",
              accesses);

  CampaignOptions copts;
  copts.accesses = accesses;
  copts.measure_rtt = false;
  auto methods = bench::paperMethods();
  methods.push_back(Method::kServerless);
  auto trials = bench::methodTrials(methods, copts);
  // US control run: the same client software outside the GFW.
  CampaignTrial us{Method::kUsControl, 200, copts, {}};
  us.campaign.accesses = std::max(20, accesses / 4);
  us.testbed.seed = 77;
  trials.push_back(us);
  const auto sweep = bench::runFigureCells(trials, args);

  Report report("Fig. 5c: PLR %% (paper vs measured)", {"paper", "measured"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto& c = sweep.campaigns[i];
    report.addRow({methodName(bench::paperMethods()[i]),
                   {PaperNumbers::plr[i], c.plr_pct}});
  }
  report.addRow({"Serverless*", {0.0, sweep.campaigns[5].plr_pct}});
  report.addRow({"US control (direct)", {0.1, sweep.campaigns[6].plr_pct}});
  report.print();

  std::printf("\nShape checks: Tor >> Shadowsocks >> {VPNs, ScholarCloud}; "
              "the US control\nstays below ~0.1%%, so the loss is the GFW's "
              "doing.\n(* measured only — serverless postdates the paper.)\n");
  return sweep.exitCode();
}
