// perfbench runner: host cost of the simulator per simulated operation.
//
// Runs one workload on the calling thread (no ParallelRunner, so the numbers
// measure per-op program cost, not the scheduler of a shared host), repeats
// the same seed-derived cells for --seconds of wall time, checks that every
// repeat produced the same result digest, and prints one JSON object on
// stdout's last line. perfbench/run.py builds this binary, symbolises the
// sampled stacks and prints the benchmark's metrics; NOTES.md says why each
// workload exists and what each metric should move.
//
//   perfbench_runner --workload paper_sweep|fleet_cached|population_day
//                    --seed N --seconds S --trace 0|1 [--stacks FILE]
//   perfbench_runner --workload selftest_aes|selftest_libc --seconds S
//                    --stacks FILE
//
// --trace 1 alternates untraced reps with traced ones (the program's own
// Tracer/SpanTracer on), samples both with the SIGPROF sampler, and
// requires both kinds to produce identical digests.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/aes.h"
#include "measure/campaign.h"
#include "measure/fleet_scenario.h"
#include "measure/population_scenario.h"
#include "measure/testbed.h"
#include "obs/export.h"
#include "sampler.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace {

using namespace sc;

// Host time is the process's CPU time: the runner is single-threaded, so
// this is the program's own cost, without the time a shared host spends
// running other processes. Wall time only bounds how long a run lasts.
double cpuSeconds() {
  timespec ts = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Seed of cell `index` of a workload run with `seed`: distinct per cell,
// a pure function of the command-line seed.
std::uint64_t cellSeed(std::uint64_t seed, std::uint64_t index) {
  Fnv1a h;
  h.add(seed);
  h.add(index);
  return h.value();
}

// Value of counter `name` in a metrics JSONL export (0 when absent).
std::uint64_t counterOf(std::string_view jsonl, std::string_view name) {
  const std::string key =
      "{\"name\":\"" + std::string(name) + "\",\"kind\":\"counter\",\"count\":";
  const std::size_t at = jsonl.find(key);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(jsonl.data() + at + key.size(), nullptr, 10);
}

std::uint64_t lineCount(std::string_view s) {
  return static_cast<std::uint64_t>(std::count(s.begin(), s.end(), '\n'));
}

// One repetition of a workload: every cell once.
struct Rep {
  double host_s = 0;   // host time of the measured part
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  // Deterministic work counts summed over the rep's cells (names as in the
  // per-layer metrics, before division by ops).
  std::map<std::string, double> counts;
  // Bench-side spans: host ms per access, per paper method layer.
  std::map<std::string, double> method_ms_per_access;
  std::vector<std::string> setup_failures;
  std::vector<std::string> errors;  // no-work and sanity failures
  // Filled by runFor: process peak RSS after this rep, and the change in
  // heap bytes in use across it (the rep's worlds are gone by then, so
  // anything left is memory the program never freed).
  double peak_rss_mb = 0;
  double heap_growth_bytes = 0;
};

// Host time to build one rep's worlds without running them.
struct Setup {
  double total_s = 0;   // every world of the rep (setup_s)
  double world_ms = 0;  // one world (measure.testbed_build_ms)
};

// Work counts every runner exports through its registry.
void addRegistryCounts(Rep& rep, std::string_view jsonl) {
  rep.counts["net.packets_delivered"] +=
      static_cast<double>(counterOf(jsonl, "net.packets.delivered"));
  rep.counts["net.drops"] += static_cast<double>(
      counterOf(jsonl, "net.drop.filter") +
      counterOf(jsonl, "net.drop.random") +
      counterOf(jsonl, "net.drop.queue"));
  rep.counts["tcp.retransmits"] +=
      static_cast<double>(counterOf(jsonl, "tcp.retransmissions"));
  rep.counts["tcp.rto_fires"] +=
      static_cast<double>(counterOf(jsonl, "tcp.rto_fires"));
  rep.counts["gfw.packets_inspected"] +=
      static_cast<double>(counterOf(jsonl, "gfw.packets_inspected"));
  rep.counts["gfw.flows_classified"] +=
      static_cast<double>(counterOf(jsonl, "gfw.flows_classified"));
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Setup setupOnce() = 0;
  virtual Rep runRep(bool traced) = 0;
};

// ---- paper_sweep ------------------------------------------------------
//
// The six methods of Fig. 5, each a fresh Testbed running a closed-loop
// campaign: one client, one Scholar access per simulated minute, RTT probes
// on. The paper's own workload and the AES-heavy packet path.
struct PaperMethod {
  measure::Method method;
  const char* layer;  // src/ module that implements the method
};
constexpr PaperMethod kPaperMethods[] = {
    {measure::Method::kNativeVpn, "vpn"},
    {measure::Method::kOpenVpn, "openvpn"},
    {measure::Method::kTor, "tor"},
    {measure::Method::kShadowsocks, "shadowsocks"},
    {measure::Method::kScholarCloud, "core"},
    {measure::Method::kServerless, "serverless"},
};
constexpr int kPaperAccesses = 20;

class PaperSweep : public Workload {
 public:
  explicit PaperSweep(std::uint64_t seed) : seed_(seed) {}

  Setup setupOnce() override {
    Setup setup;
    std::vector<double> builds;
    for (std::size_t i = 0; i < std::size(kPaperMethods); ++i) {
      const double t0 = cpuSeconds();
      measure::Testbed tb(options(i, false));
      const double s = cpuSeconds() - t0;
      setup.total_s += s;
      builds.push_back(s * 1e3);
    }
    setup.world_ms = median(builds);
    return setup;
  }

  Rep runRep(bool traced) override {
    Rep rep;
    Fnv1a digest;
    for (std::size_t i = 0; i < std::size(kPaperMethods); ++i) {
      const PaperMethod& pm = kPaperMethods[i];
      measure::Testbed tb(options(i, traced));
      measure::CampaignOptions copts;
      copts.accesses = kPaperAccesses;
      const double t0 = cpuSeconds();
      const measure::CampaignResult r =
          measure::runAccessCampaign(tb, pm.method, 1, copts);
      const double host_s = cpuSeconds() - t0;
      rep.host_s += host_s;
      rep.method_ms_per_access[pm.layer] = host_s * 1e3 / kPaperAccesses;

      rep.attempted += kPaperAccesses;
      if (r.setup_ok) {
        rep.failed += static_cast<std::uint64_t>(kPaperAccesses - r.successes);
      } else {
        rep.failed += kPaperAccesses;
        rep.setup_failures.push_back(measure::methodName(pm.method));
      }

      std::ostringstream metrics;
      obs::writeMetricsJsonl(tb.hub().registry(), metrics);
      const std::string jsonl = std::move(metrics).str();
      sim::Simulator& sim = tb.sim();
      net::Link& border = tb.world().borderLink();
      const std::uint64_t border_bytes =
          border.bytesCarried(net::Direction::kAtoB) +
          border.bytesCarried(net::Direction::kBtoA);

      digest.add(jsonl);
      digest.add(static_cast<std::uint64_t>(r.setup_ok));
      digest.add(static_cast<std::uint64_t>(r.successes));
      digest.add(static_cast<std::uint64_t>(r.failures));
      digest.add(r.plt_first_s.mean);
      digest.add(r.plt_sub_s.mean);
      digest.add(r.rtt_ms.mean);
      digest.add(r.plr_pct);
      digest.add(r.client_bytes);
      digest.add(sim.eventsExecuted());
      digest.add(static_cast<std::uint64_t>(sim.maxQueueDepth()));
      digest.add(border_bytes);

      addRegistryCounts(rep, jsonl);
      rep.counts["sim.events"] += static_cast<double>(sim.eventsExecuted());
      rep.counts["sim.max_queue_depth"] =
          std::max(rep.counts["sim.max_queue_depth"],
                   static_cast<double>(sim.maxQueueDepth()));
      rep.counts["net.bytes"] += static_cast<double>(border_bytes);
      const obs::Tracer& tracer = tb.hub().tracer();
      rep.counts["obs.trace_events"] += static_cast<double>(tracer.recorded());
      rep.counts["obs.trace_overwritten"] +=
          static_cast<double>(tracer.overwritten());
    }
    rep.digest = digest.value();
    if (rep.attempted == rep.failed)
      rep.errors.push_back("paper_sweep: no access completed");
    return rep;
  }

 private:
  measure::TestbedOptions options(std::size_t i, bool traced) const {
    measure::TestbedOptions o;
    o.seed = cellSeed(seed_, i);
    o.tracing = traced;
    o.spans = traced;
    return o;
  }

  std::uint64_t seed_;
};

// ---- fleet_cached -----------------------------------------------------
//
// One fleet cell: 16 closed-loop users (exponential 2 s think time) behind
// the domestic proxy, 4 endpoints, autoscaler and response cache on, and a
// GFW blocklist churn every 5 s that forces respawns and tunnel rebuilds.
constexpr sim::Time kFleetDuration = 40 * sim::kMinute;

class FleetCached : public Workload {
 public:
  explicit FleetCached(std::uint64_t seed) : seed_(seed) {}

  Setup setupOnce() override {
    measure::FleetCellOptions o = options(false);
    o.duration = 0;
    const double t0 = cpuSeconds();
    measure::runFleetCell(o);
    const double s = cpuSeconds() - t0;
    return {s, s * 1e3};
  }

  Rep runRep(bool traced) override {
    Rep rep;
    const double t0 = cpuSeconds();
    const measure::FleetCellResult r = measure::runFleetCell(options(traced));
    rep.host_s = cpuSeconds() - t0;
    rep.attempted = static_cast<std::uint64_t>(r.attempts);
    rep.failed = static_cast<std::uint64_t>(r.attempts - r.successes);

    Fnv1a digest;
    digest.add(r.metrics_jsonl);
    digest.add(static_cast<std::uint64_t>(r.attempts));
    digest.add(static_cast<std::uint64_t>(r.successes));
    digest.add(r.cache_hits);
    digest.add(r.cache_misses);
    digest.add(r.border_bytes);
    digest.add(r.respawns);
    digest.add(r.failovers);
    digest.add(r.blocks_applied);
    digest.add(static_cast<std::uint64_t>(r.final_size));
    rep.digest = digest.value();

    addRegistryCounts(rep, r.metrics_jsonl);
    rep.counts["net.bytes"] = static_cast<double>(r.border_bytes);
    rep.counts["gfw.blocks_applied"] = static_cast<double>(r.blocks_applied);
    rep.counts["fleet.cache_hits"] = static_cast<double>(r.cache_hits);
    rep.counts["fleet.cache_lookups"] =
        static_cast<double>(r.cache_hits + r.cache_misses);
    rep.counts["fleet.respawns"] = static_cast<double>(r.respawns);
    rep.counts["obs.trace_events"] =
        static_cast<double>(lineCount(r.trace_jsonl));

    if (r.attempts == 0) rep.errors.push_back("fleet_cached: no request");
    if (r.successes == 0) rep.errors.push_back("fleet_cached: no success");
    if (r.blocks_applied == 0)
      rep.errors.push_back("fleet_cached: blocklist churn never fired");
    return rep;
  }

 private:
  measure::FleetCellOptions options(bool traced) const {
    measure::FleetCellOptions o;
    o.seed = cellSeed(seed_, 0);
    o.users = 16;
    o.fleet_size = 4;
    o.think_mean = 2 * sim::kSecond;
    o.churn_interval = 5 * sim::kSecond;
    o.cache = true;
    o.autoscale = true;
    o.duration = kFleetDuration;
    o.tracing = traced;
    return o;
  }

  std::uint64_t seed_;
};

// ---- population_day ---------------------------------------------------
//
// One hybrid population cell: 1 M flow-level scholars over a diurnal day
// compressed into 60 simulated seconds, a quarter of the blocked users on
// ScholarCloud, and a 4-user packet-level cohort. Arrivals follow the
// diurnal rate model whatever the completions (open load).
constexpr sim::Time kPopulationDay = 60 * sim::kSecond;

class PopulationDay : public Workload {
 public:
  explicit PopulationDay(std::uint64_t seed) : seed_(seed) {}

  Setup setupOnce() override {
    measure::PopulationCellOptions o = options(false);
    o.duration = 0;
    const double t0 = cpuSeconds();
    measure::runPopulationCell(o);
    const double s = cpuSeconds() - t0;
    return {s, s * 1e3};
  }

  Rep runRep(bool traced) override {
    Rep rep;
    const double t0 = cpuSeconds();
    const measure::PopulationCellResult r =
        measure::runPopulationCell(options(traced));
    rep.host_s = cpuSeconds() - t0;
    const population::SchedulerStats& bg = r.background_stats;
    // Direct accesses are blocked by design: not attempts.
    rep.attempted = bg.arrivals - bg.blocked +
                    static_cast<std::uint64_t>(r.cohort_attempts);
    rep.failed =
        static_cast<std::uint64_t>(r.cohort_attempts - r.cohort_successes);

    Fnv1a digest;
    digest.add(r.metrics_jsonl);
    digest.add(r.background_digest);
    digest.add(static_cast<std::uint64_t>(r.cohort_attempts));
    digest.add(static_cast<std::uint64_t>(r.cohort_successes));
    digest.add(r.cohort_plt_mean_s);
    digest.add(r.cohort_plt_max_s);
    digest.add(r.cache_hits);
    digest.add(r.cache_misses);
    digest.add(static_cast<std::uint64_t>(r.final_fleet_size));
    digest.add(r.peak_active_streams);
    rep.digest = digest.value();

    addRegistryCounts(rep, r.metrics_jsonl);
    rep.counts["fleet.cache_hits"] = static_cast<double>(r.cache_hits);
    rep.counts["fleet.cache_lookups"] =
        static_cast<double>(r.cache_hits + r.cache_misses);
    rep.counts["fleet.respawns"] =
        static_cast<double>(counterOf(r.metrics_jsonl, "sc.fleet.respawns"));
    rep.counts["population.lease_denied"] =
        static_cast<double>(bg.lease_denied);
    rep.counts["population.lease_requests"] =
        static_cast<double>(bg.fleet_leases + bg.lease_denied);
    rep.counts["population.border_crossings"] =
        static_cast<double>(bg.border_crossings);
    rep.counts["obs.trace_events"] =
        static_cast<double>(lineCount(r.trace_jsonl));

    if (bg.arrivals == 0) rep.errors.push_back("population_day: no arrival");
    if (r.cohort_attempts == 0)
      rep.errors.push_back("population_day: cohort made no request");
    return rep;
  }

 private:
  measure::PopulationCellOptions options(bool traced) const {
    measure::PopulationCellOptions o;
    o.seed = cellSeed(seed_, 0);
    o.scholars = 1000000;
    o.sc_adoption = 0.25;
    o.scheduler.day_phase = 0;
    o.scheduler.time_scale = 86400.0 / 60.0;
    o.cohort_users = 4;
    o.autoscale = true;
    o.duration = kPopulationDay;
    o.tracing = traced;
    return o;
  }

  std::uint64_t seed_;
};

// ---- self-test loops (perfbench/test_perfbench.py) -------------------

// Only crypto:: code: the sampler must put nearly every sample in crypto.
void selftestAes(double seconds) {
  const Bytes key(32, 0x42);
  const Bytes iv(16, 0x24);
  crypto::AesCfbStream stream(key, iv);
  Bytes data(64 * 1024, 0x5a);
  std::uint64_t sink = 0;
  const double t0 = cpuSeconds();
  while (cpuSeconds() - t0 < seconds) {
    for (int i = 0; i < 16; ++i) stream.encryptInPlace(data);
    sink += data[7];
  }
  std::printf("selftest_aes sink=%llu\n",
              static_cast<unsigned long long>(sink));
}

// Time spent inside libc (memmove under sc::appendBytes): the sampler must
// put it in util (the src/ caller) or runtime.
void selftestLibc(double seconds) {
  const Bytes data(1 << 20, 0x6c);
  Bytes buf;
  buf.reserve(data.size());
  std::uint64_t sink = 0;
  const double t0 = cpuSeconds();
  while (cpuSeconds() - t0 < seconds) {
    for (int i = 0; i < 64; ++i) {
      buf.clear();
      appendBytes(buf, data);
      sink += buf[static_cast<std::size_t>(i)];
    }
  }
  std::printf("selftest_libc sink=%llu\n",
              static_cast<unsigned long long>(sink));
}

// ---- command line and measurement loop ---------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string stacks;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload W "
               "--seed N --seconds S --trace 0|1 [--stacks FILE]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--stacks") {
      a.stacks = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// Peak resident set of this process image. VmHWM, not getrusage: the
// kernel carries ru_maxrss across execve, so it would report the launching
// interpreter's peak when that is larger.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

constexpr int kSampleIntervalUs = 1000;
constexpr int kSetupRepeats = 15;

std::unique_ptr<perfbench::ProfSampler> makeSampler(double seconds) {
  const auto capacity =
      static_cast<std::size_t>(seconds * 1e6 / kSampleIntervalUs * 2) + 1024;
  return std::make_unique<perfbench::ProfSampler>(capacity, kSampleIntervalUs);
}

bool writeStacks(const perfbench::ProfSampler& sampler,
                 const std::string& path) {
  std::ofstream out(path);
  sampler.writeStacks(out);
  return static_cast<bool>(out);
}

struct Runs {
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
};

// Runs reps until `seconds` of wall time have passed, at least two of each
// kind so the repeat check always runs. With a sampler, untraced and traced
// reps alternate (tagged as sampler phases 0 and 1), so drift in host speed
// over the run touches both kinds alike. Heap growth counts the Rep record
// itself too (a few KB of map nodes, the same every rep).
Runs runFor(Workload& w, double seconds, perfbench::ProfSampler* sampler) {
  Runs runs;
  runs.untraced.reserve(4096);
  runs.traced.reserve(4096);
  auto one = [&](bool traced) {
    if (sampler != nullptr) sampler->setPhase(traced ? 1 : 0);
    std::vector<Rep>& into = traced ? runs.traced : runs.untraced;
    const auto heap0 = static_cast<double>(mallinfo2().uordblks);
    into.push_back(w.runRep(traced));
    into.back().heap_growth_bytes =
        static_cast<double>(mallinfo2().uordblks) - heap0;
    into.back().peak_rss_mb = peakRssMb();
  };
  const double t0 = wallSeconds();
  do {
    one(false);
    if (sampler != nullptr) one(true);
  } while (runs.untraced.size() < 2 || wallSeconds() - t0 < seconds);
  return runs;
}

void jsonNumber(std::ostringstream& o, const char* key, double v,
                bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  o << '"' << key << "\":" << buf << (comma ? "," : "");
}

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

int runWorkload(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "paper_sweep") {
    w = std::make_unique<PaperSweep>(args.seed);
  } else if (args.workload == "fleet_cached") {
    w = std::make_unique<FleetCached>(args.seed);
  } else if (args.workload == "population_day") {
    w = std::make_unique<PopulationDay>(args.seed);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  // Set-up: build the rep's worlds several times; report the median.
  std::vector<double> setup_s, build_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Setup setup = w->setupOnce();
    setup_s.push_back(setup.total_s);
    build_ms.push_back(setup.world_ms);
  }

  std::unique_ptr<perfbench::ProfSampler> sampler;
  if (args.trace == 1) {
    if (args.stacks.empty()) usage("--trace 1 needs --stacks FILE");
    sampler = makeSampler(args.seconds);
    sampler->start();
  }
  const Runs runs = runFor(*w, args.seconds, sampler.get());
  if (sampler != nullptr) sampler->stop();
  const std::vector<Rep>& untraced = runs.untraced;
  const std::vector<Rep>& traced = runs.traced;

  // Correctness: every rep, traced or not, reproduces the first digest.
  const Rep& first = untraced.front();
  std::vector<std::string> errors = first.errors;
  auto checkDigests = [&](const std::vector<Rep>& reps, const char* what) {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (reps[i].digest != first.digest) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s rep %zu digest %016llx != first %016llx", what, i,
                      static_cast<unsigned long long>(reps[i].digest),
                      static_cast<unsigned long long>(first.digest));
        errors.emplace_back(buf);
      }
    }
  };
  checkDigests(untraced, "untraced");
  checkDigests(traced, "traced");
  for (const std::string& m : first.setup_failures)
    std::fprintf(stderr, "perfbench: setup failed: %s (accesses counted as "
                         "failed)\n",
                 m.c_str());

  auto usPerOp = [](const std::vector<Rep>& reps) {
    std::vector<double> v;
    for (const Rep& r : reps)
      v.push_back(r.host_s * 1e6 / static_cast<double>(r.attempted));
    return median(v);
  };
  const double ops = static_cast<double>(first.attempted);
  const double host_us = usPerOp(untraced);

  std::map<std::string, double> layer;
  layer["measure.testbed_build_ms"] = median(build_ms);
  // -1 marks a quantity the workload does not have or cannot observe
  // through the runners' public results.
  for (const PaperMethod& pm : kPaperMethods) {
    std::vector<double> v;
    for (const Rep& r : untraced) {
      const auto it = r.method_ms_per_access.find(pm.layer);
      if (it != r.method_ms_per_access.end()) v.push_back(it->second);
    }
    layer[std::string(pm.layer) + ".host_ms_per_access"] =
        v.empty() ? -1.0 : median(v);
  }
  // Work counts come from the traced rep where they describe tracing, from
  // the untraced one otherwise (they are identical: the digests say so).
  const Rep& counted = traced.empty() ? first : traced.front();
  auto count = [&](const char* name) -> std::optional<double> {
    const auto it = counted.counts.find(name);
    if (it == counted.counts.end()) return std::nullopt;
    return it->second;
  };
  auto perOp = [&](const char* name) {
    const auto c = count(name);
    return c ? *c / ops : -1.0;
  };
  auto ratio = [&](const char* num, const char* den) {
    const auto n = count(num), d = count(den);
    if (!n || !d) return -1.0;
    return *d == 0 ? 0.0 : *n / *d;
  };
  layer["sim.events_per_op"] = perOp("sim.events");
  layer["sim.max_queue_depth"] = count("sim.max_queue_depth").value_or(-1);
  layer["net.packets_delivered_per_op"] = perOp("net.packets_delivered");
  layer["net.bytes_per_op"] = perOp("net.bytes");
  layer["net.drops_per_op"] = perOp("net.drops");
  layer["tcp.retransmits_per_op"] = perOp("tcp.retransmits");
  layer["tcp.rto_fires_per_op"] = perOp("tcp.rto_fires");
  layer["gfw.packets_inspected_per_op"] = perOp("gfw.packets_inspected");
  layer["gfw.flows_classified_per_op"] = perOp("gfw.flows_classified");
  layer["gfw.blocks_applied"] = count("gfw.blocks_applied").value_or(-1);
  layer["fleet.cache_hit_ratio"] =
      ratio("fleet.cache_hits", "fleet.cache_lookups");
  layer["fleet.respawns"] = count("fleet.respawns").value_or(-1);
  layer["population.lease_denied_ratio"] =
      ratio("population.lease_denied", "population.lease_requests");
  layer["population.border_crossings_per_op"] =
      perOp("population.border_crossings");
  layer["obs.trace_events_per_op"] = perOp("obs.trace_events");
  layer["obs.trace_overwritten"] = count("obs.trace_overwritten").value_or(-1);
  std::vector<double> growth;
  for (const Rep& r : untraced) growth.push_back(r.heap_growth_bytes / 1024);
  layer["runtime.heap_growth_kb_per_rep"] = median(growth);
  layer["obs.trace_overhead_ratio"] =
      traced.empty() ? 0.0 : usPerOp(traced) / host_us;

  if (sampler != nullptr && !writeStacks(*sampler, args.stacks)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.stacks.c_str());
    return 1;
  }

  std::ostringstream o;
  o << "{\"workload\":" << jsonString(args.workload) << ",";
  jsonNumber(o, "seed", static_cast<double>(args.seed));
  jsonNumber(o, "reps", static_cast<double>(untraced.size()));
  jsonNumber(o, "traced_reps", static_cast<double>(traced.size()));
  jsonNumber(o, "attempted", static_cast<double>(first.attempted));
  jsonNumber(o, "failed", static_cast<double>(first.failed));
  jsonNumber(o, "host_us_per_op", host_us);
  jsonNumber(o, "setup_s", median(setup_s));
  // Peak after the first rep: later reps add whatever the program leaks, so
  // a later peak would depend on how many reps the host managed.
  jsonNumber(o, "peak_rss_mb", first.peak_rss_mb);
  jsonNumber(o, "samples_dropped",
             sampler == nullptr ? 0.0 : static_cast<double>(sampler->dropped()));
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest));
  o << "\"digest\":\"" << digest << "\",\"setup_failures\":[";
  for (std::size_t i = 0; i < first.setup_failures.size(); ++i)
    o << (i ? "," : "") << jsonString(first.setup_failures[i]);
  o << "],\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    o << (i ? "," : "") << jsonString(errors[i]);
  o << "],\"layer\":{";
  bool comma = false;
  for (const auto& [k, v] : layer) {
    if (comma) o << ",";
    comma = true;
    jsonNumber(o, k.c_str(), v, false);
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return errors.empty() ? 0 : 1;
}

int runSelftest(const Args& args) {
  if (args.stacks.empty()) usage("self-tests need --stacks FILE");
  auto sampler = makeSampler(args.seconds);
  sampler->start();
  if (args.workload == "selftest_aes") {
    selftestAes(args.seconds);
  } else {
    selftestLibc(args.seconds);
  }
  sampler->stop();
  return writeStacks(*sampler, args.stacks) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.workload == "selftest_aes" || args.workload == "selftest_libc")
    return runSelftest(args);
  return runWorkload(args);
}
