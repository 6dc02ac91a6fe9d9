// Ablation A4: whitelist size vs. operational cost. The visible whitelist is
// ScholarCloud's legalization contract; this bench shows what growing it
// costs: PAC file size (every browser downloads it), PAC evaluation work
// (every request consults it), proxy matching cost, and agency audit effort.
#include "bench_common.h"
#include "measure/report.h"

#include "core/domestic_proxy.h"

using namespace sc;
using namespace sc::measure;

namespace {

std::vector<std::string> syntheticWhitelist(std::size_t n) {
  std::vector<std::string> domains = {Testbed::kScholarHost};
  for (std::size_t i = 1; i < n; ++i)
    domains.push_back("journal" + std::to_string(i) + ".example.org");
  return domains;
}

}  // namespace

int main() {
  std::printf("Ablation A4 — whitelist size vs operational cost\n");

  Report report("A4: cost of a growing whitelist",
                {"PAC bytes", "eval us/req", "PLT sub s", "audit hits"});

  for (const std::size_t size : {std::size_t{1}, std::size_t{10},
                                 std::size_t{100}, std::size_t{1000}}) {
    TestbedOptions topts;
    topts.seed = 2000 + size;
    Testbed tb(topts);
    auto& proxy = tb.domesticProxy();
    for (const auto& domain : syntheticWhitelist(size))
      proxy.addToWhitelist(domain);

    // PAC size + native evaluation cost (what every browser pays per URL).
    const auto pac = proxy.buildPac();
    const std::string js = pac.toJavaScript();
    const bench::Stopwatch clock;
    constexpr int kEvals = 20000;
    int diverted = 0;
    for (int i = 0; i < kEvals; ++i) {
      // Worst case: a non-whitelisted host scans the whole rule list.
      if (pac.evaluate("www.amazon.com").kind != http::ProxyKind::kDirect)
        ++diverted;
    }
    const double elapsed = clock.seconds() * 1e6 / kEvals;  // us per eval
    if (diverted != 0) std::fprintf(stderr, "BUG: default leak\n");

    // End-to-end PLT through the proxy with the big whitelist installed.
    CampaignOptions copts;
    copts.accesses = 20;
    copts.interval = 30 * sim::kSecond;
    copts.measure_rtt = false;
    const auto campaign = runAccessCampaign(
        tb, Method::kScholarCloud, 800 + static_cast<std::uint32_t>(size),
        copts);

    // Audit effort: agencies scan the whole list against their references.
    if (auto* record = tb.registry().mutableRecord(proxy.icpNumber()))
      record->whitelist = proxy.whitelist();
    const auto removed = tb.mps().auditWhitelist(
        proxy.icpNumber(), {"journal7.example.org"});

    report.addRow({std::to_string(size) + " domains",
                   {static_cast<double>(js.size()), elapsed,
                    campaign.plt_sub_s.mean,
                    static_cast<double>(removed.size())}});
  }
  report.print();
  std::printf(
      "\nReading: the PAC grows linearly with the whitelist and every browser"
      "\ndownloads it; evaluation stays cheap (suffix scans), and PLT through"
      "\nthe proxy is unaffected — the real cost of a big whitelist is the"
      "\naudit surface, which is exactly why the paper keeps it small and"
      "\nvisible.\n");
  return 0;
}
