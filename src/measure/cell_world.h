// The one builder for the self-contained scenario worlds.
//
// Every scenario cell (fleet sweep, hybrid population, fleet chaos,
// serverless chaos/cost) measures its method in the same network, so that
// network is built here once:
//
//   CellWorld  — own Simulator/Hub/Network/World, the US resolver
//                ("us-dns"), the plain-HTTP scholar origin serving a
//                2 KiB cacheable page, and the border GFW (scholar blocked
//                by domain and origin IP, ICP leniency via the registry).
//                runServerlessCell builds its dispatcher on this base.
//   FleetWorld — CellWorld plus the ScholarCloud fleet deployment: the
//                "sc-domestic" proxy in fleet-only mode, its ICP approval,
//                a fleet::Fleet spawning RemoteProxy endpoints on fresh US
//                IPs, and GFW blocklist churn wired into the prober. Used
//                by the fleet, population and fleet-chaos cells.
//
// Members are constructed in declaration order, which is also the order the
// worlds were historically built in by hand: node names, IPs, RNG forks and
// event sequence numbers (hence every exported metric and trace byte) depend
// on it, and so does teardown. Do not reorder them.
//
// Cells own no shared mutable state, so measure::runCells (parallel.h) fans
// them across threads with byte-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/recovery.h"
#include "core/deployment.h"
#include "core/domestic_proxy.h"
#include "core/remote_proxy.h"
#include "dns/server.h"
#include "fleet/fleet.h"
#include "gfw/gfw.h"
#include "http/server.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"
#include "sim/simulator.h"
#include "transport/host_stack.h"

namespace sc::measure {

// The page every scenario user fetches (whitelisted, GFW-blocked direct).
inline constexpr const char* kScholarHost = "scholar.google.com";

class CellWorld {
 public:
  // trace_capacity 0 leaves the tracer off. `recovery` (nullable) hangs a
  // chaos::RecoveryTracker for that script off the tracer's sink.
  explicit CellWorld(std::uint64_t seed, std::size_t trace_capacity = 0,
                     const chaos::ChaosScript* recovery = nullptr);
  CellWorld(const CellWorld&) = delete;
  CellWorld& operator=(const CellWorld&) = delete;

  // The registry and (when on) tracer exports, captured before teardown.
  std::string metricsJsonl() const;
  std::string traceJsonl() const;

  sim::Simulator sim;
  obs::Hub hub;
  net::Network network;
  net::World world;
  std::optional<chaos::RecoveryTracker> tracker;
  transport::HostStack dns_stack;
  dns::DnsServer us_dns;
  transport::HostStack origin_stack;
  http::HttpServer origin;
  gfw::Gfw gfw;
  regulation::IcpRegistry registry;
};

class FleetWorld : public CellWorld {
 public:
  // `fleet_options` is used as given except for its tunnel secret, which
  // the deployment owns. `remote_prefix` names the spawned endpoint nodes
  // ("<prefix><seq>"); those names reach metric names, so each cell keeps
  // its own.
  FleetWorld(std::uint64_t seed, std::size_t trace_capacity,
             const chaos::ChaosScript* recovery,
             fleet::FleetOptions fleet_options,
             const std::string& remote_prefix);

  const Bytes secret;
  // Declared before the deployment (and thus the fleet) so the fleet's
  // destructor still sees live remote stacks while closing tunnels.
  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies;
  transport::HostStack domestic_stack;
  core::DomesticProxy proxy;
  core::Deployment deployment;
  fleet::Fleet& fleet;

 private:
  // Approves the deployment's ICP filing, then spawns the fleet; runs in
  // the member initializers, after `deployment` is built.
  fleet::Fleet& spawnFleet(fleet::FleetOptions options,
                           const std::string& remote_prefix);
};

// A campus user with its own host stack and think-time rng stream (the
// fleet and population cells), and how long one of its GETs may take.
inline constexpr sim::Time kThinkingFetchTimeout = 15 * sim::kSecond;

struct ThinkingUser {
  ThinkingUser(net::Node& node, sim::Rng rng_)
      : stack(node), rng(std::move(rng_)) {}
  transport::HostStack stack;
  sim::Rng rng;
};

// One absolute-form GET for kScholarHost through the HTTP proxy at
// `proxy_ep` on a fresh connection; `done(ok)` fires once with ok meaning a
// 200 arrived within `timeout`.
void fetchThroughProxy(transport::HostStack& stack, sim::Simulator& sim,
                       net::Endpoint proxy_ep, sim::Time timeout,
                       std::function<void(bool ok)> done);

// Reports one access attempt's fate as a kAccessOutcome trace event (the
// RecoveryTracker's success/failure signal); a no-op with tracing off.
void traceAccess(sim::Simulator& sim, bool ok, sim::Time latency,
                 std::uint32_t tag);

// Successes over attempts, 0 when nothing was attempted.
double successRatio(int successes, int attempts);

// Copies the RecoveryTracker aggregates into a chaos-shaped cell result.
template <class Result>
void fillAggregates(const chaos::RecoveryTracker& tracker, Result& out) {
  out.faults = tracker.faults();
  out.impacted = tracker.impacted();
  out.recovered = tracker.recovered();
  out.unrecovered = tracker.unrecovered();
  out.mean_detect_s = tracker.meanDetectSeconds();
  out.mean_recover_s = tracker.meanRecoverSeconds();
  out.max_recover_s = tracker.maxRecoverSeconds();
  out.requests_lost = tracker.requestsLost();
  out.records = tracker.records();
}

}  // namespace sc::measure
