// Chaos sweep world: one access method living through a scripted fault
// timeline, with recovery measured from the trace stream.
//
// Three world shapes behind one cell interface:
//   - baseline methods (native VPN, OpenVPN, Tor, Shadowsocks, direct) run
//     inside a full Testbed with Link + GFW injectors armed;
//   - kScholarCloud with `fleet` set runs the shared FleetWorld
//     (measure/cell_world.h: domestic proxy in fleet-only mode, RemoteProxy
//     endpoints on fresh US IPs) with all four injectors, so "egress" IP
//     bans and "fleet:any" crashes land on live endpoints and the
//     retire/respawn loop is the recovery under test;
//   - kServerless runs the serverless world (serverless_scenario.h).
//
// Tracing is always on in a chaos cell: the RecoveryTracker hangs off the
// tracer sink, and the exported trace/metrics JSONL are the byte-identity
// witnesses for the determinism tests (same seed + same script => same
// bytes, any thread count).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault.h"
#include "chaos/recovery.h"
#include "measure/testbed.h"
#include "sim/simulator.h"

namespace sc::measure {

struct ChaosCellOptions {
  std::uint64_t seed = 42;
  Method method = Method::kScholarCloud;
  bool fleet = true;  // kScholarCloud only: fleet-backed world
  int fleet_size = 3;
  int users = 3;
  chaos::ChaosScript script;
  sim::Time duration = 120 * sim::kSecond;
  // Fixed access cadence (next attempt this long after the last completes);
  // users start staggered by 250ms so attempts interleave deterministically.
  sim::Time access_interval = 2 * sim::kSecond;
  sim::Time fetch_timeout = 10 * sim::kSecond;  // fleet-world raw GETs only
  std::size_t trace_capacity = obs::Tracer::kDefaultCap;
  // Baseline (Testbed) worlds only: resolve symbolic "egress" bans to the
  // method's GFW-visible border IP (Shadowsocks remote, Tor's fronting
  // CDN). Off by default — the BENCH_chaos grid keeps its historical
  // semantics where baselines are killed by policy faults, not IP bans.
  bool ban_method_endpoint = false;
};

struct ChaosCellResult {
  int attempts = 0;
  int successes = 0;
  double success_ratio = 0.0;
  // RecoveryTracker aggregates.
  int faults = 0;
  int impacted = 0;
  int recovered = 0;
  int unrecovered = 0;  // impacted, never saw a success again
  double mean_detect_s = 0.0;
  double mean_recover_s = 0.0;
  double max_recover_s = 0.0;
  std::uint64_t requests_lost = 0;
  std::uint64_t respawns = 0;  // fleet worlds only
  std::vector<chaos::FaultRecord> records;
  // JSONL exports of the cell's own Hub, captured before the world dies.
  std::string metrics_jsonl;
  std::string trace_jsonl;
};

// Cells fan out with runCells(cells, threads, runChaosCell)
// (measure/parallel.h), byte-identical to a sequential run.
ChaosCellResult runChaosCell(const ChaosCellOptions& options);

}  // namespace sc::measure
