// Figure 6c: client memory before (idle browser) and after (accessing
// Scholar), per method, through the activity-driven memory model.
#include "bench_common.h"
#include "measure/report.h"

int main(int argc, char** argv) {
  using namespace sc;
  using namespace sc::measure;
  const auto args = bench::parseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const int accesses = args.accessesOr(40);
  std::printf("Figure 6c — client memory usage (%d accesses)\n", accesses);

  const auto sweep = bench::runFiveMethodSweep(accesses, /*rtt=*/false,
                                               /*seed=*/42,
                                               /*cold_cache=*/false, &args);

  Report report("Fig. 6c: memory MB (before / after / delta / extra client)",
                {"before", "after", "paper dlt", "meas dlt", "extra"});
  for (std::size_t i = 0; i < bench::paperMethods().size(); ++i) {
    const auto mem = modelMemory(sweep.campaigns[i]);
    report.addRow({methodName(bench::paperMethods()[i]),
                   {mem.before_mb, mem.after_mb, PaperNumbers::mem_delta_mb[i],
                    mem.delta(), mem.extra_client_mb}});
  }
  report.print();
  std::printf("\nShape checks: the Tor Browser idles ~70%% above Chrome and "
              "grows the most\nwhile browsing; native VPN grows the least.\n");
  return sweep.exitCode();
}
