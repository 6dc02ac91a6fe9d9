#include "measure/fleet_scenario.h"

#include <functional>
#include <memory>
#include <vector>

#include "measure/cell_world.h"

namespace sc::measure {

FleetCellResult runFleetCell(const FleetCellOptions& opt) {
  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  fopts.tunnels_per_endpoint = opt.tunnels_per_endpoint;
  fopts.enable_cache = opt.cache;
  fopts.autoscale = opt.autoscale;
  FleetWorld w(opt.seed, opt.tracing ? obs::Tracer::kDefaultCap : 0, nullptr,
               fopts, "fleet-remote-");
  sim::Simulator& sim = w.sim;
  fleet::Fleet& fl = w.fleet;
  gfw::Gfw& gfw = w.gfw;

  // Churn driver: every interval the GFW "discovers" one live egress IP.
  FleetCellResult out;
  std::function<void()> churn = [&] {
    for (const net::Endpoint& ep : fl.liveEndpoints()) {
      if (gfw.ips().isBlocked(ep.ip, sim.now())) continue;
      gfw.ips().add(ep.ip, sim.now() + opt.block_duration);
      ++out.blocks_applied;
      break;
    }
    sim.schedule(opt.churn_interval, [&churn] { churn(); });
  };
  if (opt.churn_interval > 0)
    sim.schedule(opt.churn_interval, [&churn] { churn(); });

  // Users: fetch the whitelisted page through the proxy in a think-time
  // loop.
  const net::Endpoint proxy_ep = w.proxy.proxyEndpoint();
  std::vector<std::unique_ptr<ThinkingUser>> users;
  // `u` stays valid: users holds unique_ptrs.
  std::function<void(ThinkingUser*)> fetch = [&](ThinkingUser* u) {
    ++out.attempts;
    fetchThroughProxy(u->stack, sim, proxy_ep, kThinkingFetchTimeout,
                      [&, u](bool ok) {
                        if (ok) ++out.successes;
                        const auto think =
                            static_cast<sim::Time>(u->rng.exponential(
                                static_cast<double>(opt.think_mean))) +
                            sim::kMillisecond;
                        sim.schedule(think, [&fetch, u] { fetch(u); });
                      });
  };
  for (int i = 0; i < opt.users; ++i) {
    auto& node = w.world.addCampusHost("fleet-user-" + std::to_string(i));
    users.push_back(std::make_unique<ThinkingUser>(
        node, sim.rng().fork(1000 + static_cast<std::uint64_t>(i))));
    ThinkingUser* u = users.back().get();
    const auto start = static_cast<sim::Time>(
        u->rng.exponential(static_cast<double>(sim::kSecond)));
    sim.schedule(start, [&fetch, u] { fetch(u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  if (fl.cache() != nullptr) {
    out.cache_hits = fl.cache()->hits();
    out.cache_misses = fl.cache()->misses();
  }
  out.border_bytes =
      w.world.borderLink().bytesCarried(net::Direction::kAtoB) +
      w.world.borderLink().bytesCarried(net::Direction::kBtoA);
  out.respawns = fl.respawns();
  out.failovers = fl.failovers();
  out.final_size = fl.size();
  out.metrics_jsonl = w.metricsJsonl();
  if (opt.tracing) out.trace_jsonl = w.traceJsonl();
  return out;
}

}  // namespace sc::measure
