// Figure 6a: client-side network traffic per access. The paper's baseline is
// ~19 KB for a direct (uncensored) access; each method adds tunneling /
// encryption / obfuscation overhead on top.
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr(60);
  std::printf("Figure 6a — client traffic per access (%d accesses)\n",
              accesses);

  // Direct baseline, measured from the US control client (no censorship).
  double direct_kb = 0;
  {
    TestbedOptions topts;
    topts.seed = 99;
    Testbed tb(topts);
    CampaignOptions copts;
    copts.accesses = accesses;
    copts.measure_rtt = false;
    copts.cold_cache = true;  // Fig. 6a reports full-transfer accesses
    const auto us = runAccessCampaign(tb, Method::kUsControl, 300, copts);
    direct_kb = us.traffic_kb_per_access;
  }

  const auto sweep = bench::runFiveMethodSweep(accesses, /*rtt=*/false,
                                               /*seed=*/42,
                                               /*cold_cache=*/true, &args);

  Report report("Fig. 6a: traffic KB/access (paper vs measured)",
                {"paper total", "meas total", "paper extra", "meas extra"});
  report.addRow({"direct (baseline)",
                 {PaperNumbers::direct_traffic_kb, direct_kb, 0.0, 0.0}});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto& c = sweep.campaigns[i];
    report.addRow(
        {methodName(bench::paperMethods()[i]),
         {PaperNumbers::direct_traffic_kb + PaperNumbers::extra_traffic_kb[i],
          c.traffic_kb_per_access, PaperNumbers::extra_traffic_kb[i],
          c.traffic_kb_per_access - direct_kb}});
  }
  report.print();
  std::printf("\nShape checks: native VPN adds the most overhead (per-packet "
              "IP-in-GRE\nencapsulation of every segment and ACK); none of the "
              "methods blows the\nbudget by an order of magnitude.\n");
  return sweep.exitCode();
}
