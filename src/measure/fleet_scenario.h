// Fleet sweep world: the proxy-fleet subsystem under GFW blocklist churn.
//
// A self-contained cell on the shared FleetWorld (measure/cell_world.h:
// domestic proxy in fleet-only mode, a fleet::Fleet spawning RemoteProxy
// endpoints on fresh US IPs), plus a churn driver that block-lists a live
// egress IP every `churn_interval` and N campus users issuing whitelisted
// GETs through the proxy. Success ratio under churn vs fleet size, and
// cache hits vs border-link bytes, are the sweep observables
// (BENCH_fleet.json).
//
// Cells share no mutable state, so runCells(cells, threads, runFleetCell)
// (measure/parallel.h) fans them across workers with byte-identical
// results for any thread count.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.h"

namespace sc::measure {

struct FleetCellOptions {
  std::uint64_t seed = 42;
  int users = 4;
  int fleet_size = 2;           // initial endpoints (autoscaler may move it)
  int tunnels_per_endpoint = 2;
  // GFW blocklist churn: every interval one live egress IP is blocked for
  // block_duration (0 interval disables churn).
  sim::Time churn_interval = 20 * sim::kSecond;
  sim::Time block_duration = 60 * sim::kSecond;
  sim::Time duration = 120 * sim::kSecond;
  sim::Time think_mean = 2 * sim::kSecond;  // exponential user think time
  bool cache = true;
  bool autoscale = false;
  bool tracing = false;
};

struct FleetCellResult {
  int attempts = 0;
  int successes = 0;
  double success_ratio = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t border_bytes = 0;  // both directions of the border link
  std::uint64_t respawns = 0;
  std::uint64_t failovers = 0;
  std::uint64_t blocks_applied = 0;  // churn events the driver fired
  int final_size = 0;
  // JSONL exports of the cell's own Hub, captured before the world dies.
  std::string metrics_jsonl;
  std::string trace_jsonl;  // empty unless options.tracing
};

FleetCellResult runFleetCell(const FleetCellOptions& options);

}  // namespace sc::measure
