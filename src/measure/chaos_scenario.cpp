#include "measure/chaos_scenario.h"

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "measure/cell_world.h"
#include "measure/serverless_scenario.h"
#include "obs/export.h"

namespace sc::measure {

namespace {

constexpr const char* kChaosHost = kScholarHost;

// Baseline methods ride the full Testbed; the script can reach links and
// GFW policy but there is no fleet to heal, which is the comparison.
ChaosCellResult runTestbedCell(const ChaosCellOptions& opt) {
  TestbedOptions topt;
  topt.seed = opt.seed;
  topt.tracing = true;
  topt.trace_capacity = opt.trace_capacity;
  Testbed bed(topt);
  sim::Simulator& sim = bed.sim();

  chaos::RecoveryTracker tracker(sim, opt.script);
  tracker.attachTo(bed.hub().tracer());

  chaos::LinkInjector link_inj(bed.network());
  // Default: no egress resolver — a baseline method's endpoint is not in
  // the "egress" rotation (symbolic bans trace as unhandled, charging the
  // method nothing); policy faults are what kill baselines. With
  // ban_method_endpoint set, "egress" resolves to the method's GFW-visible
  // border IP instead, so a per-endpoint ban wave lands exactly once (the
  // set is static: later bans find nothing un-banned and go unhandled).
  chaos::GfwInjector::IpResolver resolver;
  if (opt.ban_method_endpoint) {
    resolver = [&bed, method = opt.method](const std::string& target)
        -> std::optional<net::Ipv4> {
      if (target != "egress") return std::nullopt;
      net::Ipv4 ip{};
      switch (method) {
        case Method::kShadowsocks: ip = bed.ssRemoteIp(); break;
        case Method::kTor: ip = bed.torCdnIp(); break;
        default: return std::nullopt;
      }
      if (bed.gfw().ips().isBlocked(ip, bed.sim().now()))
        return std::nullopt;  // already banned: the static set is exhausted
      return ip;
    };
  }
  chaos::GfwInjector gfw_inj(bed.gfw(), std::move(resolver));
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  ChaosCellResult out;
  std::function<void(Testbed::Client*)> cycle = [&](Testbed::Client* c) {
    ++out.attempts;
    c->browser->loadPage(kChaosHost, [&, c](http::PageLoadResult r) {
      if (r.ok) ++out.successes;
      traceAccess(sim, r.ok, r.plt, c->tag);
      sim.schedule(opt.access_interval, [&cycle, c] { cycle(c); });
    });
  };
  for (int i = 0; i < opt.users; ++i) {
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    // `ready` may fire before addClient returns the reference, so the start
    // is deferred through a shared slot filled right after construction.
    auto self = std::make_shared<Testbed::Client*>(nullptr);
    Testbed::Client& c = bed.addClient(
        opt.method, 100 + static_cast<std::uint32_t>(i),
        [&, self, stagger](bool ready) {
          if (!ready) return;
          sim.schedule(stagger, [&cycle, self] {
            if (*self != nullptr) cycle(*self);
          });
        });
    *self = &c;
  }

  sim.runUntil(opt.duration);

  out.success_ratio =
      out.attempts == 0 ? 0.0
                        : static_cast<double>(out.successes) / out.attempts;
  fillAggregates(tracker, out);
  std::ostringstream metrics;
  obs::writeMetricsJsonl(bed.hub().registry(), metrics);
  out.metrics_jsonl = std::move(metrics).str();
  std::ostringstream trace;
  obs::writeTraceJsonl(bed.hub().tracer(), trace);
  out.trace_jsonl = std::move(trace).str();
  return out;
}

// The fleet-backed ScholarCloud world (FleetWorld) with all four injectors
// armed. "egress" resolves to the first live, not-yet-banned endpoint at
// fire time — the GFW discovering an IP it can see.
ChaosCellResult runFleetChaosCell(const ChaosCellOptions& opt) {
  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  FleetWorld w(opt.seed, opt.trace_capacity, &opt.script, fopts,
               "fleet-remote-");
  sim::Simulator& sim = w.sim;
  fleet::Fleet& fl = w.fleet;
  gfw::Gfw& gfw = w.gfw;

  chaos::LinkInjector link_inj(w.network);
  chaos::GfwInjector gfw_inj(
      gfw, [&fl, &gfw, &sim](const std::string& target)
               -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (const net::Endpoint& ep : fl.liveEndpoints())
          if (!gfw.ips().isBlocked(ep.ip, sim.now())) return ep.ip;
        return std::nullopt;
      });
  chaos::FleetInjector fleet_inj(fl);
  chaos::DnsInjector dns_inj(w.us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&fleet_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  ChaosCellResult out;
  const net::Endpoint proxy_ep = w.proxy.proxyEndpoint();
  std::vector<std::unique_ptr<transport::HostStack>> users;
  // `u` stays valid: users holds unique_ptrs.
  std::function<void(transport::HostStack*)> fetch =
      [&](transport::HostStack* u) {
        ++out.attempts;
        const sim::Time started = sim.now();
        fetchThroughProxy(
            *u, sim, proxy_ep, opt.fetch_timeout, [&, u, started](bool ok) {
              if (ok) ++out.successes;
              traceAccess(sim, ok, sim.now() - started,
                          Testbed::kScTunnelTag);
              sim.schedule(opt.access_interval, [&fetch, u] { fetch(u); });
            });
      };
  for (int i = 0; i < opt.users; ++i) {
    auto& node = w.world.addCampusHost("chaos-user-" + std::to_string(i));
    users.push_back(std::make_unique<transport::HostStack>(node));
    transport::HostStack* u = users.back().get();
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    sim.schedule(stagger, [&fetch, u] { fetch(u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  out.respawns = fl.respawns();
  fillAggregates(*w.tracker, out);
  out.metrics_jsonl = w.metricsJsonl();
  out.trace_jsonl = w.traceJsonl();
  return out;
}

}  // namespace

ChaosCellResult runChaosCell(const ChaosCellOptions& options) {
  if (options.method == Method::kServerless) {
    // The serverless method has its own world (serverless_scenario); adapt
    // the generic cell options and fold the richer result back down.
    ServerlessCellOptions sopt;
    sopt.seed = options.seed;
    sopt.users = options.users;
    sopt.script = options.script;
    sopt.duration = options.duration;
    sopt.access_interval = options.access_interval;
    sopt.fetch_timeout = options.fetch_timeout;
    sopt.trace_capacity = options.trace_capacity;
    const ServerlessCellResult sr = runServerlessCell(sopt);
    ChaosCellResult out;
    out.attempts = sr.attempts;
    out.successes = sr.successes;
    out.success_ratio = sr.success_ratio;
    out.faults = sr.faults;
    out.impacted = sr.impacted;
    out.recovered = sr.recovered;
    out.unrecovered = sr.unrecovered;
    out.mean_detect_s = sr.mean_detect_s;
    out.mean_recover_s = sr.mean_recover_s;
    out.max_recover_s = sr.max_recover_s;
    out.requests_lost = sr.requests_lost;
    // "Respawns" here = spawns beyond the initial pre-warm fill.
    out.respawns = sr.spawns > static_cast<std::uint64_t>(sopt.prewarm)
                       ? sr.spawns - static_cast<std::uint64_t>(sopt.prewarm)
                       : 0;
    out.records = sr.records;
    out.metrics_jsonl = sr.metrics_jsonl;
    out.trace_jsonl = sr.trace_jsonl;
    return out;
  }
  if (options.method == Method::kScholarCloud && options.fleet)
    return runFleetChaosCell(options);
  return runTestbedCell(options);
}

}  // namespace sc::measure
