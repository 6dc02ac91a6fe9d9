// Figure 5a: page load time (first-time vs subsequent) for the five access
// methods, from a day-style campaign (one access per simulated minute).
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr();
  std::printf("Figure 5a — page load time (%d accesses per method)\n",
              accesses);

  const auto sweep = bench::runFiveMethodSweep(accesses, /*rtt=*/false,
                                               /*seed=*/42,
                                               /*cold_cache=*/false, &args,
                                               /*with_serverless=*/true);

  Report report("Fig. 5a: PLT seconds (paper vs measured)",
                {"paper 1st", "meas 1st", "paper sub", "meas sub",
                 "meas sub max"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto& c = sweep.campaigns[i];
    report.addRow({methodName(bench::paperMethods()[i]),
                   {PaperNumbers::plt_first[i], c.plt_first_s.mean,
                    PaperNumbers::plt_sub[i], c.plt_sub_s.mean,
                    c.plt_sub_s.max}});
  }
  {
    // Measured-only extra row: the serverless method postdates the paper, so
    // both "paper" columns are 0 by construction.
    const auto& c = sweep.campaigns.back();
    report.addRow({"Serverless*",
                   {0.0, c.plt_first_s.mean, 0.0, c.plt_sub_s.mean,
                    c.plt_sub_s.max}});
  }
  report.print();

  std::printf("\nShape checks: Tor first-time PLT dominates everything; "
              "Shadowsocks has the\nworst subsequent PLT of the non-Tor "
              "methods (per-session auth + keep-alive);\nScholarCloud and the "
              "VPNs sit in the ~1-1.5 s band.\n"
              "(* measured only — no paper column; the fronted-dispatch PLT "
              "should land near\nScholarCloud's band.)\n");
  return sweep.exitCode();
}
