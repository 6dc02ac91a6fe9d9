#include "measure/serverless_scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "core/domestic_proxy.h"
#include "measure/cell_world.h"
#include "serverless/cost.h"
#include "serverless/dispatcher.h"
#include "serverless/provider.h"
#include "serverless/runtime.h"

namespace sc::measure {

ServerlessCellResult runServerlessCell(const ServerlessCellOptions& opt) {
  CellWorld w(opt.seed, opt.trace_capacity, &opt.script);
  sim::Simulator& sim = w.sim;
  net::World& world = w.world;
  gfw::Gfw& gfw = w.gfw;
  const net::Ipv4 us_dns_ip = w.dns_stack.node().primaryIp();

  const Bytes secret = toBytes("serverless-dispatch-secret");

  // Dispatcher gateway: provider-only domestic proxy, deliberately NOT ICP
  // registered — the method's protection budget is endpoint churn, not
  // leniency (the gray-market contrast with ScholarCloud).
  auto& gateway_node = world.addCampusServer("fn-gateway");
  transport::HostStack gateway_stack(gateway_node, 2.3e9);
  core::DomesticProxyOptions gw_opts;
  gw_opts.tunnel_secret = secret;  // remote stays zero: provider-only mode
  gw_opts.whitelist = {kScholarHost};
  core::DomesticProxy gateway(gateway_stack, gw_opts,
                              Testbed::kServerlessTunnelTag);

  serverless::CostModel cost(sim);

  std::vector<std::unique_ptr<transport::HostStack>> fn_stacks;
  std::vector<std::unique_ptr<serverless::FunctionRuntime>> fn_runtimes;
  auto spawn = [&world, &fn_stacks, &fn_runtimes, us_dns_ip,
                secret](int seq) -> std::optional<serverless::FunctionSpawn> {
    const std::string name = "fn-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    serverless::RuntimeOptions ropts;
    ropts.cert_name = Testbed::kFrontDomain;
    ropts.tunnel_secret = secret;
    ropts.dns_server = us_dns_ip;
    fn_runtimes.push_back(
        std::make_unique<serverless::FunctionRuntime>(*stack, ropts));
    fn_stacks.push_back(std::move(stack));
    return serverless::FunctionSpawn{net::Endpoint{node.primaryIp(), 443},
                                     name};
  };

  serverless::ProviderOptions popts;
  popts.prewarm = opt.prewarm;
  popts.max_live = opt.max_live;
  popts.ttl = opt.ttl;
  popts.respawn = opt.respawn;
  serverless::FunctionProvider provider(sim, popts, spawn, &cost,
                                        Testbed::kServerlessTunnelTag);

  serverless::DispatcherOptions dopts;
  dopts.front_domain = Testbed::kFrontDomain;
  dopts.tunnel_secret = secret;
  serverless::FrontedDispatcher dispatcher(gateway_stack, dopts, provider,
                                           &cost,
                                           Testbed::kServerlessTunnelTag);
  gateway.setTunnelProvider(&dispatcher);
  gfw.ips().setOnChange([&dispatcher] { dispatcher.onBlocklistChurn(); });

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
  const net::Endpoint gateway_ep = gateway.proxyEndpoint();
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
  out.final_connected = dispatcher.connectedCount();
  out.border_bytes =
      w.network.tagStats(Testbed::kServerlessTunnelTag).bytes_originated;

  fillAggregates(*w.tracker, out);
  out.metrics_jsonl = w.metricsJsonl();
  out.trace_jsonl = w.traceJsonl();
  return out;
}

}  // namespace sc::measure
