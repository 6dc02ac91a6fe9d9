// Ablation A5: the GFW's VPN policy eras (footnote 2 of the paper).
//   2012-2015: VPNs extensively blocked (block_vpn_protocols = true)
//   2015-:     registered VPN protocols tolerated (the measured era)
// Shows why "native VPN is robust" is a policy statement, not a technical
// one — the same protocol collapses when the discipline flips back on.
#include "bench_common.h"
#include "measure/report.h"

using namespace sc;
using namespace sc::measure;

int main() {
  const int accesses = bench::accessesFromEnv(60);
  std::printf("Ablation A5 — GFW VPN-policy eras (%d accesses)\n", accesses);

  // Each (era, method) pair is its own cell: a fresh seed-888 world, tag 700.
  std::vector<CampaignTrial> trials;
  for (const bool blocked_era : {false, true}) {
    for (const auto method : {Method::kNativeVpn, Method::kOpenVpn}) {
      CampaignTrial trial{method, 700, {}, {}};
      trial.campaign.accesses = accesses;
      trial.campaign.measure_rtt = false;
      trial.testbed.seed = 888;
      trial.testbed.gfw.block_vpn_protocols = blocked_era;
      trials.push_back(trial);
    }
  }
  const auto cells =
      runCells(trials, bench::threadsFromEnv(), runCampaignTrial);

  Report report("A5: native VPN & OpenVPN under both eras",
                {"PLR %", "PLT sub s", "failures"});
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& c = cells[i].result;
    std::string label =
        std::string(methodName(trials[i].method)) +
        (trials[i].testbed.gfw.block_vpn_protocols ? " (2012-15 era)"
                                                   : " (2017)");
    // The blocked era is expected to strand the tunnel; that row reports
    // every access as failed rather than failing the bench.
    if (!c.setup_ok) label += " [tunnel never came up]";
    report.addRow({label,
                   {c.plr_pct, c.plt_sub_s.mean,
                    c.setup_ok ? static_cast<double>(c.failures)
                               : static_cast<double>(accesses)}});
  }
  report.print();
  std::printf("\nReading: under the 2012-2015 blocking era the recognized VPN "
              "protocols\nbecome unusable; ScholarCloud's design goal — no "
              "dependence on a protocol\nthe GFW has a signature for — is "
              "exactly robustness to this flip.\n");
  return 0;
}
