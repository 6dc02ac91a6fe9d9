#include "measure/cell_world.h"

#include <sstream>
#include <utility>

#include "http/client.h"
#include "measure/calibration.h"
#include "measure/testbed.h"
#include "obs/export.h"

namespace sc::measure {

CellWorld::CellWorld(std::uint64_t seed, std::size_t trace_capacity,
                     const chaos::ChaosScript* recovery)
    : sim(seed),
      hub(sim),
      network(sim),
      world(network, calibratedWorld()),
      tracker(recovery == nullptr
                  ? std::nullopt
                  : std::optional<chaos::RecoveryTracker>(std::in_place, sim,
                                                          *recovery)),
      // US resolver for the remote endpoints (their queries stay US-side).
      dns_stack(world.addUsServer("us-dns")),
      us_dns(dns_stack),
      // Origin: plain-HTTP scholar stand-in serving a cacheable page, so a
      // domestic cache can shave whole round trips off the border link.
      origin_stack(world.addUsServer("scholar-origin"), 2.3e9),
      origin(origin_stack, {}),
      gfw(network, calibratedGfw()) {
  if (trace_capacity > 0) hub.tracer().enable(trace_capacity);
  if (tracker) tracker->attachTo(hub.tracer());
  origin.setDefaultHandler(
      [](const http::Request&, http::HttpServer::Respond respond) {
        http::Response resp;
        resp.body = Bytes(2048, static_cast<std::uint8_t>('s'));
        resp.headers.set("content-type", "text/html");
        respond(std::move(resp));
      });
  const net::Ipv4 origin_ip = origin_stack.node().primaryIp();
  us_dns.addRecord(kScholarHost, origin_ip);

  // GFW on the border: scholar blocked for direct access, a registered
  // domestic proxy protected by ICP leniency (the legalization story).
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_ip);
  gfw.setIcpLookup(
      [this](net::Ipv4 ip) { return registry.isRegistered(ip); });
}

std::string CellWorld::metricsJsonl() const {
  std::ostringstream out;
  obs::writeMetricsJsonl(hub.registry(), out);
  return std::move(out).str();
}

std::string CellWorld::traceJsonl() const {
  std::ostringstream out;
  obs::writeTraceJsonl(hub.tracer(), out);
  return std::move(out).str();
}

namespace {

core::DomesticProxyOptions fleetOnlyProxy(const Bytes& secret) {
  core::DomesticProxyOptions o;
  o.tunnel_secret = secret;  // remote stays zero: fleet-only mode
  o.whitelist = {kScholarHost};
  return o;
}

}  // namespace

FleetWorld::FleetWorld(std::uint64_t seed, std::size_t trace_capacity,
                       const chaos::ChaosScript* recovery,
                       fleet::FleetOptions fleet_options,
                       const std::string& remote_prefix)
    : CellWorld(seed, trace_capacity, recovery),
      secret(toBytes("scholarcloud-operator-secret")),
      domestic_stack(world.addCampusServer("sc-domestic"), 2.3e9),
      proxy(domestic_stack, fleetOnlyProxy(secret), Testbed::kScTunnelTag),
      deployment(proxy),
      fleet(spawnFleet(std::move(fleet_options), remote_prefix)) {
  // Blocklist churn feeds straight into the prober (backoffs collapse).
  gfw.ips().setOnChange([this] { fleet.onBlocklistChurn(); });
}

fleet::Fleet& FleetWorld::spawnFleet(fleet::FleetOptions options,
                                     const std::string& remote_prefix) {
  proxy.setIcpNumber(registry.approve(deployment.buildApplication()));
  options.tunnel_secret = secret;
  const net::Ipv4 us_dns_ip = dns_stack.node().primaryIp();
  const net::Ipv4 domestic_ip = domestic_stack.node().primaryIp();
  auto spawn = [this, remote_prefix, us_dns_ip, domestic_ip](int seq)
      -> std::optional<fleet::EndpointSpawn> {
    const std::string name = remote_prefix + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    core::RemoteProxyOptions ropts;
    ropts.tunnel_secret = secret;
    ropts.dns_server = us_dns_ip;
    ropts.authorized_peers = {domestic_ip};
    remote_proxies.push_back(
        std::make_unique<core::RemoteProxy>(*stack, ropts));
    remote_stacks.push_back(std::move(stack));
    return fleet::EndpointSpawn{net::Endpoint{node.primaryIp(), 443}, name};
  };
  return deployment.spawnFleet<fleet::Fleet>(domestic_stack, std::move(options),
                                             spawn, Testbed::kScTunnelTag);
}

namespace {

core::DomesticProxyOptions gatewayProxy(const Bytes& secret,
                                        crypto::BlindingMode mode) {
  core::DomesticProxyOptions o;
  o.tunnel_secret = secret;  // remote stays zero: provider-only mode
  o.blinding_mode = mode;
  o.whitelist = {kScholarHost};
  return o;
}

serverless::DispatcherOptions frontedDispatch(const Bytes& secret,
                                              crypto::BlindingMode mode) {
  serverless::DispatcherOptions o;
  o.front_domain = Testbed::kFrontDomain;
  o.tunnel_secret = secret;
  o.blinding_mode = mode;
  return o;
}

}  // namespace

ServerlessSite::ServerlessSite(sim::Simulator& sim, net::World& world,
                               gfw::Gfw& gfw, net::Ipv4 us_dns_ip,
                               crypto::BlindingMode blinding_mode,
                               serverless::ProviderOptions provider_options)
    : secret(toBytes("serverless-dispatch-secret")),
      gateway_stack(world.addCampusServer("fn-gateway"), 2.3e9),
      gateway(gateway_stack, gatewayProxy(secret, blinding_mode),
              Testbed::kServerlessTunnelTag),
      cost(sim),
      provider(sim, std::move(provider_options),
               spawnFn(world, us_dns_ip, blinding_mode), &cost,
               Testbed::kServerlessTunnelTag),
      dispatcher(gateway_stack, frontedDispatch(secret, blinding_mode),
                 provider, &cost, Testbed::kServerlessTunnelTag) {
  gateway.setTunnelProvider(&dispatcher);
  gfw.ips().setOnChange([this] { dispatcher.onBlocklistChurn(); });
}

serverless::FunctionProvider::SpawnFn ServerlessSite::spawnFn(
    net::World& world, net::Ipv4 us_dns_ip, crypto::BlindingMode mode) {
  return [this, &world, us_dns_ip,
          mode](int seq) -> std::optional<serverless::FunctionSpawn> {
    const std::string name = "fn-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    serverless::RuntimeOptions ropts;
    ropts.cert_name = Testbed::kFrontDomain;
    ropts.tunnel_secret = secret;
    ropts.blinding_mode = mode;
    ropts.dns_server = us_dns_ip;
    fn_hosts.push_back(std::make_unique<FnHost>(node, ropts));
    return serverless::FunctionSpawn{net::Endpoint{node.primaryIp(), ropts.port},
                                     name};
  };
}

void fetchThroughProxy(transport::HostStack& stack, sim::Simulator& sim,
                       net::Endpoint proxy_ep, sim::Time timeout,
                       std::function<void(bool ok)> done) {
  // Absolute-form GET on a raw connection: the PAC-configured browser path
  // is exercised end to end by the Testbed campaigns; here the load
  // generator stays minimal so a cell measures the world behind the proxy.
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = stack.tcpConnect(
      proxy_ep, [&sim, holder, timeout, done = std::move(done)](bool ok) {
        if (!ok || *holder == nullptr) {
          done(false);
          return;
        }
        http::Request req;
        req.target = std::string("http://") + kScholarHost + "/";
        req.headers.set("host", kScholarHost);
        http::HttpClient::fetchOn(
            *holder, sim, std::move(req), timeout,
            [holder, done](std::optional<http::Response> resp) {
              (*holder)->close();
              done(resp.has_value() && resp->status == 200);
            });
      });
}

void traceAccess(sim::Simulator& sim, bool ok, sim::Time latency,
                 std::uint32_t tag) {
  obs::Tracer* tracer = obs::tracerOf(sim);
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = sim.now();
  ev.type = obs::EventType::kAccessOutcome;
  ev.what = ok ? "ok" : "fail";
  ev.tag = tag;
  ev.a = ok ? latency : -1;
  tracer->record(std::move(ev));
}

double successRatio(int successes, int attempts) {
  return attempts == 0 ? 0.0 : static_cast<double>(successes) / attempts;
}

}  // namespace sc::measure
