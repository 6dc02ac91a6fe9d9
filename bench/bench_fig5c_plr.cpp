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

  const auto sweep = bench::runFiveMethodSweep(accesses, /*rtt=*/false,
                                               /*seed=*/42,
                                               /*cold_cache=*/false, &args,
                                               /*with_serverless=*/true);

  Report report("Fig. 5c: PLR %% (paper vs measured)", {"paper", "measured"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto& c = sweep.campaigns[i];
    report.addRow({methodName(bench::paperMethods()[i]),
                   {PaperNumbers::plr[i], c.plr_pct}});
  }
  report.addRow({"Serverless*", {0.0, sweep.campaigns.back().plr_pct}});

  // US control run: the same client software outside the GFW.
  {
    TestbedOptions topts;
    topts.seed = 77;
    Testbed tb(topts);
    CampaignOptions copts;
    copts.accesses = std::max(20, accesses / 4);
    copts.measure_rtt = false;
    const auto us = runAccessCampaign(tb, Method::kUsControl, 200, copts);
    report.addRow({"US control (direct)", {0.1, us.plr_pct}});
  }
  report.print();

  std::printf("\nShape checks: Tor >> Shadowsocks >> {VPNs, ScholarCloud}; "
              "the US control\nstays below ~0.1%%, so the loss is the GFW's "
              "doing.\n(* measured only — serverless postdates the paper.)\n");
  return sweep.exitCode();
}
