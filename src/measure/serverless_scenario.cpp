#include "measure/serverless_scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "measure/cell_world.h"

namespace sc::measure {

ServerlessCellResult runServerlessCell(const ServerlessCellOptions& opt) {
  CellWorld w(opt.seed, opt.trace_capacity, &opt.script);
  sim::Simulator& sim = w.sim;
  net::World& world = w.world;
  gfw::Gfw& gfw = w.gfw;

  serverless::ProviderOptions popts;
  popts.prewarm = opt.prewarm;
  popts.max_live = opt.max_live;
  popts.ttl = opt.ttl;
  popts.respawn = opt.respawn;
  ServerlessSite site(sim, world, gfw, w.dns_stack.node().primaryIp(),
                      crypto::BlindingMode::kByteMap, popts);
  serverless::FunctionProvider& provider = site.provider;

  chaos::LinkInjector link_inj(w.network);
  // "egress" resolves to the first warm, not-yet-banned endpoint IP at fire
  // time — the GFW discovering an IP it can see traffic to.
  chaos::GfwInjector gfw_inj(
      gfw, [&provider, &gfw, &sim](const std::string& target)
               -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (int id : provider.readyIds()) {
          const auto* ep = provider.get(id);
          if (ep != nullptr && !gfw.ips().isBlocked(ep->remote.ip, sim.now()))
            return ep->remote.ip;
        }
        return std::nullopt;
      });
  chaos::DnsInjector dns_inj(w.us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  sim::Time last_fault_at = 0;
  for (const chaos::FaultEvent& ev : opt.script.events())
    last_fault_at = std::max(last_fault_at, ev.at);

  ServerlessCellResult out;
  const net::Endpoint gateway_ep = site.gateway.proxyEndpoint();
  std::vector<std::unique_ptr<transport::HostStack>> users;
  // `u` stays valid: users holds unique_ptrs.
  std::function<void(transport::HostStack*)> fetch =
      [&](transport::HostStack* u) {
        ++out.attempts;
        const sim::Time started = sim.now();
        const bool after_wave = started > last_fault_at;
        if (after_wave) ++out.attempts_after_last_fault;
        fetchThroughProxy(
            *u, sim, gateway_ep, opt.fetch_timeout,
            [&, u, started, after_wave](bool ok) {
              if (ok) {
                ++out.successes;
                if (after_wave) ++out.successes_after_last_fault;
              }
              traceAccess(sim, ok, sim.now() - started,
                          Testbed::kServerlessTunnelTag);
              sim.schedule(opt.access_interval, [&fetch, u] { fetch(u); });
            });
      };
  for (int i = 0; i < opt.users; ++i) {
    auto& node = world.addCampusHost("fn-user-" + std::to_string(i));
    users.push_back(std::make_unique<transport::HostStack>(node));
    transport::HostStack* u = users.back().get();
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    sim.schedule(stagger, [&fetch, u] { fetch(u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  serverless::CostModel& cost = site.cost;
  cost.publish();
  out.endpoint_seconds = cost.endpointSeconds();
  out.cost_units = cost.totalCost();
  out.invocations = cost.invocations();
  out.spawns = cost.spawns();
  out.cold_starts = cost.coldStarts();
  out.bans = cost.bans();
  out.reaps = provider.reaps();
  out.cold_start_max_ms = cost.coldStartMaxMs();
  out.cold_start_mean_ms = cost.coldStartMeanMs();
  out.final_live = provider.liveCount();
  out.final_connected = site.dispatcher.connectedCount();
  out.border_bytes =
      w.network.tagStats(Testbed::kServerlessTunnelTag).bytes_originated;

  fillAggregates(*w.tracker, out);
  out.metrics_jsonl = w.metricsJsonl();
  out.trace_jsonl = w.traceJsonl();
  return out;
}

}  // namespace sc::measure
