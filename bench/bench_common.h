// Shared plumbing for the benches. The figure benches run one campaign per
// method at the paper's cadence (one access per simulated minute), each in
// its own seeded world, scaled to SC_BENCH_ACCESSES accesses (default 120;
// set the environment variable to 1440 for the paper's full day).
//
// The seven benches that take arguments (fig5a/b/c, fig6a/b/c and
// span_attribution) share one small command line; the others read only
// environment variables:
//   --trace FILE     enable the obs::Tracer and dump each cell's event trace
//                    (.csv suffix selects CSV, anything else JSONL)
//   --metrics FILE   dump each cell's obs::Registry snapshot
//   --spans FILE     enable the obs::SpanTracer and dump each cell's span
//                    trees (.json suffix selects Chrome trace_event format
//                    for chrome://tracing, anything else JSONL)
//   --accesses N     override SC_BENCH_ACCESSES / the default (a positive
//                    integer; anything else is rejected)
// A figure bench writes one file per cell, FILE with the method's slug
// before its extension: --trace t.jsonl gives t.native-vpn.jsonl, ...
//
// It also holds the benches' one wall clock (Stopwatch) and their one
// serial-vs-parallel determinism check (checkParallelIdentity).
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "measure/campaign.h"
#include "measure/parallel.h"
#include "measure/resource_model.h"
#include "measure/testbed.h"
#include "obs/export.h"
#include "util/strings.h"

namespace sc::bench {

// Parses `text` as a positive integer no larger than INT_MAX, as a whole:
// "abc", "0", "-5" and "3x" are rejected. Returns 0 after naming `what` on
// stderr when the text is not one.
inline int parsePositiveInt(const char* what, const char* text) {
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || n <= 0 || n > INT_MAX) {
    std::fprintf(stderr, "%s expects a positive integer, got '%s'\n", what,
                 text);
    return 0;
  }
  return static_cast<int>(n);
}

// SC_BENCH_ACCESSES if set, else `fallback`. A set but malformed value
// exits 2 rather than silently running some other sweep.
inline int accessesFromEnv(int fallback = 120) {
  const char* env = std::getenv("SC_BENCH_ACCESSES");
  if (env == nullptr) return fallback;
  const int v = parsePositiveInt("SC_BENCH_ACCESSES", env);
  if (v == 0) std::exit(2);
  return v;
}

// Parses a list of positive integers from the named environment variable;
// any run of non-digits separates values. A value above INT_MAX is dropped
// with a message. Empty when unset or digit-free.
inline std::vector<int> parseIntList(const char* env_name) {
  std::vector<int> out;
  const char* env = std::getenv(env_name);
  if (env == nullptr) return out;
  long long v = 0;
  bool too_big = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      v = v * 10 + (*p - '0');
      if (v > INT_MAX) {
        too_big = true;
        v = 0;  // keeps the accumulator bounded; the run is dropped anyway
      }
    } else {
      if (too_big)
        std::fprintf(stderr, "%s: value above %d ignored\n", env_name,
                     INT_MAX);
      else if (v > 0)
        out.push_back(static_cast<int>(v));
      v = 0;
      too_big = false;
      if (*p == '\0') break;
    }
  }
  return out;
}

inline int intFromEnv(const char* env_name, int fallback) {
  const std::vector<int> v = parseIntList(env_name);
  return v.empty() ? fallback : v.front();
}

// SC_BENCH_THREADS: worker count for the parallel campaign executor,
// resolved as ParallelRunner does (0 or unset: hardware concurrency).
inline unsigned threadsFromEnv() {
  return measure::ParallelRunner(
             static_cast<unsigned>(intFromEnv("SC_BENCH_THREADS", 0)))
      .threads();
}

// Common bench options parsed from argv. Unknown arguments are rejected so a
// typo'd flag fails loudly instead of silently running the default sweep.
struct BenchArgs {
  std::string trace_path;    // empty = tracing off
  std::string metrics_path;  // empty = no metrics dump
  std::string spans_path;    // empty = span recording off
  int accesses = 0;          // 0 = use accessesFromEnv
  bool ok = true;

  // --accesses if given, else SC_BENCH_ACCESSES, else `fallback`.
  int accessesOr(int fallback = 120) const {
    return accesses > 0 ? accesses : accessesFromEnv(fallback);
  }
};

inline BenchArgs parseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        args.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--trace") == 0) {
      if (const char* v = value("--trace")) args.trace_path = v;
    } else if (std::strcmp(a, "--metrics") == 0) {
      if (const char* v = value("--metrics")) args.metrics_path = v;
    } else if (std::strcmp(a, "--spans") == 0) {
      if (const char* v = value("--spans")) args.spans_path = v;
    } else if (std::strcmp(a, "--accesses") == 0) {
      if (const char* v = value("--accesses")) {
        args.accesses = parsePositiveInt("--accesses", v);
        if (args.accesses == 0) args.ok = false;
      }
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--trace FILE] [--metrics FILE] [--spans FILE] "
                   "[--accesses N]\n",
                   argv[0]);
      args.ok = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", a);
      args.ok = false;
    }
  }
  return args;
}

// The benches' one wall clock. Throughput, speedup and overhead figures are
// host wall time by definition; no simulated quantity ever reads it.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  // sclint:allow(det-wallclock) benches report host wall time; nothing simulated reads it
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Both runs of a serial-vs-parallel determinism check.
template <class Result>
struct ParallelIdentity {
  std::vector<Result> parallel;
  std::vector<Result> serial;
  double parallel_s = 0;
  double serial_s = 0;
  bool match = false;  // same length and same(parallel[i], serial[i]) for all i
};

// Runs the same cells on `threads` workers, then on one (`run(threads)`,
// then `run(1)`), timing each; `same` compares one result pair.
// Parallelism may change wall time, never results.
template <class Run, class Same>
auto checkParallelIdentity(unsigned threads, Run run, Same same) {
  using Results = std::invoke_result_t<Run&, unsigned>;
  ParallelIdentity<typename Results::value_type> out;
  const Stopwatch parallel_clock;
  out.parallel = run(threads);
  out.parallel_s = parallel_clock.seconds();
  const Stopwatch serial_clock;
  out.serial = run(1u);
  out.serial_s = serial_clock.seconds();
  out.match = std::equal(out.parallel.begin(), out.parallel.end(),
                         out.serial.begin(), out.serial.end(), same);
  return out;
}

// Streaming writer for the BENCH_*.json artifacts: nested objects/arrays
// with automatic comma placement and two-space indentation. Numbers go
// through %.6g / %lld so dumps are byte-stable across runs; strings are
// emitted verbatim (keys and values here never need escaping).
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  JsonWriter& beginObject(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonWriter& endObject() {
    close('}');
    return *this;
  }
  JsonWriter& beginArray(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonWriter& endArray() {
    close(']');
    return *this;
  }

  JsonWriter& field(const char* key, double v) {
    prefix(key);
    std::fprintf(out_, "%.6g", v);
    return *this;
  }
  JsonWriter& field(const char* key, bool v) {
    prefix(key);
    std::fputs(v ? "true" : "false", out_);
    return *this;
  }
  JsonWriter& field(const char* key, const char* v) {
    prefix(key);
    std::fprintf(out_, "\"%s\"", v);
    return *this;
  }
  JsonWriter& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }
  template <class T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& field(const char* key, T v) {
    prefix(key);
    if constexpr (std::is_signed_v<T>)
      std::fprintf(out_, "%lld", static_cast<long long>(v));
    else
      std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
    return *this;
  }
  // Array elements (no key).
  template <class T>
  JsonWriter& element(T v) {
    return field(nullptr, v);
  }

 private:
  void prefix(const char* key) {
    if (!first_.empty()) {
      std::fputs(first_.back() ? "\n" : ",\n", out_);
      first_.back() = false;
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", out_);
    }
    if (key != nullptr) std::fprintf(out_, "\"%s\": ", key);
  }
  void open(const char* key, char bracket) {
    prefix(key);
    std::fputc(bracket, out_);
    first_.push_back(true);
  }
  void close(char bracket) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputc('\n', out_);
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", out_);
    }
    std::fputc(bracket, out_);
    if (first_.empty()) std::fputc('\n', out_);
  }

  std::FILE* out_;
  std::vector<bool> first_;
};

// One BENCH_*.json artifact in the working directory: the file and its
// top-level object are opened here; close() ends both and notes the path.
class JsonArtifact : public JsonWriter {
 public:
  explicit JsonArtifact(const char* path)
      : JsonArtifact(path, std::fopen(path, "w")) {}
  ~JsonArtifact() { close(); }
  JsonArtifact(const JsonArtifact&) = delete;
  JsonArtifact& operator=(const JsonArtifact&) = delete;

  bool ok() const noexcept { return file_ != nullptr; }
  void close() {
    if (file_ == nullptr) return;
    endObject();
    std::fclose(file_);
    file_ = nullptr;
    std::printf("  -> %s\n", path_);
  }

 private:
  JsonArtifact(const char* path, std::FILE* file)
      : JsonWriter(file), path_(path), file_(file) {
    if (file_ == nullptr)
      std::fprintf(stderr, "cannot write %s\n", path_);
    else
      beginObject();
  }

  const char* path_;
  std::FILE* file_;
};

// The campaign stage of the core and gfw throughput benches: one method's
// fig-7-style sweep through runScalabilityParallel on `threads` workers,
// checked against the plain serial runScalability loop.
struct CampaignSweepIdentity {
  std::vector<int> client_counts;
  unsigned threads = 1;
  ParallelIdentity<measure::ScalabilityPoint> runs;

  double speedup() const {
    return runs.parallel_s > 0 ? runs.serial_s / runs.parallel_s : 0;
  }
  void print() const {
    std::printf(
        "  campaign: serial %.2fs, parallel %.2fs on %u threads (%.2fx), "
        "results %s\n",
        runs.serial_s, runs.parallel_s, threads, speedup(),
        runs.match ? "match" : "DIFFER");
  }
  // The artifact's "campaign" object.
  void write(JsonWriter& jw) const {
    jw.beginObject("campaign");
    jw.beginArray("client_counts");
    for (const int c : client_counts) jw.element(c);
    jw.endArray();
    jw.field("threads", threads)
        .field("serial_seconds", runs.serial_s)
        .field("parallel_seconds", runs.parallel_s)
        .field("speedup", speedup())
        .field("parallel_matches_serial", runs.match)
        .endObject();
  }
};

inline CampaignSweepIdentity runCampaignSweepIdentity(
    measure::Method method, const std::vector<int>& client_counts,
    unsigned threads) {
  measure::ScalabilityOptions options;
  options.client_counts = client_counts;
  const auto run = [&](unsigned t) {
    return t == 1 ? measure::runScalability(method, options)
                  : measure::runScalabilityParallel(method, options, t);
  };
  const auto same = [](const measure::ScalabilityPoint& x,
                       const measure::ScalabilityPoint& y) {
    return x.clients == y.clients && x.plt_mean_s == y.plt_mean_s &&
           x.plt_p95_s == y.plt_p95_s && x.failures == y.failures;
  };
  return {client_counts, threads, checkParallelIdentity(threads, run, same)};
}

// The five methods of Fig. 2/5/6, in the paper's presentation order.
inline const std::vector<measure::Method>& paperMethods() {
  static const std::vector<measure::Method> methods = {
      measure::Method::kNativeVpn, measure::Method::kOpenVpn,
      measure::Method::kTor, measure::Method::kShadowsocks,
      measure::Method::kScholarCloud};
  return methods;
}

// One figure row per method, each its own CampaignTrial cell: seed 42 and
// tags 100, 101, ... in list order, all driven by `campaign`.
inline std::vector<measure::CampaignTrial> methodTrials(
    const std::vector<measure::Method>& methods,
    const measure::CampaignOptions& campaign) {
  std::vector<measure::CampaignTrial> trials;
  std::uint32_t tag = 100;
  for (const auto method : methods) {
    measure::CampaignTrial trial{method, tag++, campaign, {}};
    trial.testbed.seed = 42;
    trials.push_back(trial);
  }
  return trials;
}

// Runs every trial in its own Testbed across `threads` workers, results in
// trial order. `run(trial, testbed)` drives the campaign and reads whatever
// it needs from the world before the world dies.
template <class Run>
auto runTrialCells(const std::vector<measure::CampaignTrial>& trials,
                   unsigned threads, Run run) {
  return measure::runCells(trials, threads,
                           [&](const measure::CampaignTrial& trial) {
                             measure::Testbed tb(trial.testbed);
                             return run(trial, tb);
                           });
}

// `path` with the slug of `method`'s name put before its extension, so the
// suffix that selects the dump format survives: "t.jsonl" with Native VPN
// gives "t.native-vpn.jsonl", "trace" gives "trace.native-vpn".
inline std::string cellPath(const std::string& path, measure::Method method) {
  std::string slug;
  for (const char c : toLower(measure::methodName(method))) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
      slug += c;
    else if (!slug.empty() && slug.back() != '-')
      slug += '-';
  }
  if (!slug.empty() && slug.back() == '-') slug.pop_back();
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  return has_ext ? path.substr(0, dot) + "." + slug + path.substr(dot)
                 : path + "." + slug;
}

// Writes one cell's --trace/--metrics/--spans files, named by cellPath.
inline void dumpCell(measure::Testbed& tb, const BenchArgs& args,
                     measure::Method method) {
  if (!args.trace_path.empty()) {
    const std::string path = cellPath(args.trace_path, method);
    if (obs::dumpTrace(tb.hub().tracer(), path))
      std::fprintf(stderr, "trace: %zu events -> %s\n",
                   tb.hub().tracer().events().size(), path.c_str());
  }
  if (!args.spans_path.empty()) {
    const std::string path = cellPath(args.spans_path, method);
    if (obs::dumpSpans(tb.hub().spans(), path))
      std::fprintf(stderr, "spans: %zu -> %s\n",
                   tb.hub().spans().spans().size(), path.c_str());
  }
  if (!args.metrics_path.empty()) {
    // Simulator tallies are published at dump time (they are accessors, not
    // registry instruments). Wallclock stays on stderr: it is the one
    // nondeterministic number and must not enter the deterministic dump.
    const std::string path = cellPath(args.metrics_path, method);
    auto& reg = tb.hub().registry();
    reg.gauge("sim.events_executed")
        ->set(static_cast<double>(tb.sim().eventsExecuted()));
    reg.gauge("sim.max_queue_depth")
        ->set(static_cast<double>(tb.sim().maxQueueDepth()));
    if (obs::dumpMetrics(reg, path))
      std::fprintf(stderr, "metrics -> %s (%.2fs wallclock, %llu events)\n",
                   path.c_str(), tb.sim().wallSeconds(),
                   static_cast<unsigned long long>(tb.sim().eventsExecuted()));
  }
}

struct SweepResult {
  std::vector<measure::CampaignResult> campaigns;  // index-aligned to trials

  // The bench's exit status: 0, or 1 after naming every campaign whose row
  // holds no measurement (its setup failed, or it set up but no access
  // succeeded). Every figure method is expected to work, so a bench must
  // not pass such a row off as a result.
  int exitCode() const {
    int code = 0;
    for (const auto& c : campaigns) {
      const char* why = !c.setup_ok         ? "setup failed"
                        : c.successes == 0 ? "recorded no successful access"
                                           : nullptr;
      if (why == nullptr) continue;
      std::fprintf(stderr, "FAILED: %s %s; its row is not a measurement\n",
                   measure::methodName(c.method), why);
      code = 1;
    }
    return code;
  }
};

// The figure benches' campaign: every trial its own cell on SC_BENCH_THREADS
// workers, each writing its own --trace/--metrics/--spans files. No row
// depends on which other rows ran, or in what order.
inline SweepResult runFigureCells(std::vector<measure::CampaignTrial> trials,
                                  const BenchArgs& args) {
  for (auto& trial : trials) {
    trial.testbed.tracing = !args.trace_path.empty();
    trial.testbed.spans = !args.spans_path.empty();
  }
  return {runTrialCells(trials, threadsFromEnv(),
                        [&](const measure::CampaignTrial& trial,
                            measure::Testbed& tb) {
                          auto result = measure::runAccessCampaign(
                              tb, trial.method, trial.tag, trial.campaign);
                          dumpCell(tb, args, trial.method);
                          return result;
                        })};
}

}  // namespace sc::bench
