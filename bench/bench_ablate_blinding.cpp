// Ablation A1: what does message blinding actually buy?
// Four ScholarCloud variants under the same GFW:
//   (a) registered + byte-map blinding        — the deployed system
//   (b) registered + printable blinding       — entropy-hiding variant
//   (c) UNREGISTERED + byte-map blinding      — no legal avenue: the tunnel
//       is just another unknown high-entropy flow (throttled like SS)
//   (d) a hypothetical GFW that throttles ALL unknown flows, registered or
//       not — byte-map loses; printable still passes the entropy classifier
#include "bench_common.h"
#include "measure/report.h"

using namespace sc;
using namespace sc::measure;

namespace {

struct Variant {
  const char* label;
  bool registered;
  crypto::BlindingMode mode;
  bool throttle_all_unknown;
};

}  // namespace

int main() {
  const int accesses = bench::accessesFromEnv();
  std::printf("Ablation A1 — message blinding & registration (%d accesses)\n",
              accesses);

  const Variant variants[] = {
      {"registered + byte-map", true, crypto::BlindingMode::kByteMap, false},
      {"registered + printable", true, crypto::BlindingMode::kPrintable,
       false},
      {"UNREGISTERED + byte-map", false, crypto::BlindingMode::kByteMap,
       false},
      {"paranoid GFW + byte-map", true, crypto::BlindingMode::kByteMap, true},
      {"paranoid GFW + printable", true, crypto::BlindingMode::kPrintable,
       true},
  };

  // Each variant is its own cell: a fresh seed-1234 world, tag 400.
  std::vector<CampaignTrial> trials;
  for (const auto& v : variants) {
    CampaignTrial trial{Method::kScholarCloud, 400, {}, {}};
    trial.campaign.accesses = accesses;
    trial.campaign.measure_rtt = false;
    trial.testbed.seed = 1234;
    trial.testbed.register_scholarcloud = v.registered;
    trial.testbed.blinding_mode = v.mode;
    trial.testbed.gfw.throttle_all_unknown = v.throttle_all_unknown;
    trials.push_back(trial);
  }
  const auto cells =
      runCells(trials, bench::threadsFromEnv(), runCampaignTrial);

  Report report("A1: ScholarCloud variants", {"PLR %", "PLT sub s", "KB/acc"});
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& c = cells[i].result;
    report.addRow({variants[i].label,
                   {c.plr_pct, c.plt_sub_s.mean, c.traffic_kb_per_access}});
  }
  report.print();
  std::printf(
      "\nReading: registration is what protects the high-entropy byte-map "
      "tunnel\n(unregistered -> throttled). Against a GFW that throttles every "
      "unknown\nhigh-entropy flow, only the printable encoding survives — at "
      "a ~33%%\nbandwidth premium. This is §3's agility argument in numbers.\n");
  return 0;
}
