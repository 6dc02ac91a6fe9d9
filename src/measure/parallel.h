// Parallel campaign executor.
//
// Every cell of a measurement sweep — one (method, client_count, seed) point
// of runScalability, one trial of a multi-trial access campaign, or one
// scenario world (fleet, population, chaos, serverless) — builds its own
// world with its own Simulator, obs::Hub, and Rng. Cells share no mutable
// state, so they are embarrassingly parallel: runCells fans them across
// hardware threads and merges results in deterministic cell order. Output
// is byte-identical regardless of thread count (including 1); parallelism
// changes only wall-clock time, never results.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "measure/campaign.h"

namespace sc::measure {

class ParallelRunner {
 public:
  // threads == 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit ParallelRunner(unsigned threads = 0);

  unsigned threads() const noexcept { return threads_; }

  // Runs fn(0) ... fn(n-1) across the workers. Indices are claimed from a
  // shared atomic counter, so callers must make fn safe to run concurrently
  // for distinct indices (each cell owning its Simulator suffices). Blocks
  // until every index has run; the first exception thrown by any fn is
  // rethrown on the calling thread after all workers join.
  void forEachIndex(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned threads_;
};

// The one cell runner: run(cells[0]) ... run(cells[n-1]) across `threads`
// workers (0 = hardware), results in cell order. Every scenario cell builds
// its own world, so the results are byte-identical to a sequential loop for
// any thread count.
template <class Cell, class Run>
auto runCells(const std::vector<Cell>& cells, unsigned threads, Run run) {
  std::vector<std::invoke_result_t<Run&, const Cell&>> results(cells.size());
  ParallelRunner(threads).forEachIndex(
      cells.size(), [&](std::size_t i) { results[i] = run(cells[i]); });
  return results;
}

// Fig. 7 sweep with one worker per (method, client_count, seed) cell.
// Results arrive in options.client_counts order — byte-identical to
// runScalability(method, options) for any thread count.
std::vector<ScalabilityPoint> runScalabilityParallel(
    Method method, ScalabilityOptions options = {}, unsigned threads = 0);

// One independent access-campaign trial: a fresh testbed (trial.testbed
// seeds and configures it) driving one client through trial.campaign.
struct CampaignTrial {
  Method method = Method::kDirect;
  std::uint32_t tag = 1;
  CampaignOptions campaign;
  TestbedOptions testbed;
};

struct CampaignTrialResult {
  CampaignResult result;
  // JSONL exports of the trial's own Hub, captured before the testbed dies.
  // trace_jsonl is empty unless trial.testbed.tracing was on; spans_jsonl is
  // empty unless trial.testbed.spans was on.
  std::string trace_jsonl;
  std::string metrics_jsonl;
  std::string spans_jsonl;
};

CampaignTrialResult runCampaignTrial(const CampaignTrial& trial);

}  // namespace sc::measure
