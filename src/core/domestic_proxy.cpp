#include "core/domestic_proxy.h"

#include "http/client.h"
#include "util/strings.h"

namespace sc::core {

DomesticProxy::DomesticProxy(transport::HostStack& stack,
                             DomesticProxyOptions options,
                             std::uint32_t measure_tag)
    : stack_(stack), options_(std::move(options)), tag_(measure_tag) {
  if (obs::Registry* reg = obs::registryOf(stack_.sim())) {
    c_proxied_ = reg->counter("sc.domestic.requests_proxied");
    c_denied_ = reg->counter("sc.domestic.requests_denied");
    c_pac_downloads_ = reg->counter("sc.domestic.pac_downloads");
    c_rotations_ = reg->counter("sc.domestic.blinding_rotations");
    c_pool_saturation_ = reg->counter("sc.domestic.pool_saturation");
    c_cache_hits_ = reg->counter("sc.domestic.cache_hits");
  }
  http::ServerOptions sopts;
  sopts.port = options_.http_port;
  sopts.cycles_per_request = options_.cycles_per_request;
  sopts.cycles_per_body_byte = 5.0;  // forwarding, not content assembly
  server_ = std::make_unique<http::HttpServer>(stack_, sopts);

  server_->route("/proxy.pac", [this](const http::Request&,
                                      http::HttpServer::Respond respond) {
    ++pac_downloads_;
    if (c_pac_downloads_ != nullptr) c_pac_downloads_->inc();
    http::Response resp;
    resp.headers.set("content-type", "application/x-ns-proxy-autoconfig");
    resp.body = toBytes(buildPac().toJavaScript());
    respond(std::move(resp));
  });

  server_->setDefaultHandler([this](const http::Request& req,
                                    http::HttpServer::Respond respond) {
    handleHttpRequest(req, std::move(respond));
  });
  server_->setConnectHandler(
      [this](const http::Request& req, transport::Stream::Ptr client,
             http::HttpServer::Respond respond) {
        handleConnect(req, std::move(client), std::move(respond));
      });

  // Fleet-only deployments leave `remote` zero: the built-in pool would
  // just dial nowhere and count saturation forever.
  if (!options_.remote.ip.isZero()) {
    tunnels_.resize(static_cast<std::size_t>(options_.tunnel_pool_size));
    for (std::size_t i = 0; i < tunnels_.size(); ++i) ensureTunnel(i);
  }
}

http::Url DomesticProxy::pacUrl() const {
  http::Url url;
  url.scheme = "http";
  url.host = stack_.node().primaryIp().str();
  url.port = options_.http_port;
  url.path = "/proxy.pac";
  return url;
}

http::PacScript DomesticProxy::buildPac() const {
  http::PacScript pac;
  http::ProxyDecision via_proxy = http::ProxyDecision::httpProxy(proxyEndpoint());
  for (const auto& backup : options_.pac_backup_proxies)
    via_proxy.addFallback(http::ProxyHop{http::ProxyKind::kHttpProxy, backup});
  // DIRECT last resort is opt-in: for truly blocked hosts it just moves the
  // failure from "proxy down" to "GFW timeout", but incidentally-blocked
  // hosts may still answer.
  if (options_.pac_direct_fallback) via_proxy.addDirectFallback();
  for (const auto& domain : options_.whitelist)
    pac.addDomainRule(domain, via_proxy);
  pac.setDefault(http::ProxyDecision::direct());
  return pac;
}

bool DomesticProxy::isWhitelisted(const std::string& host) const {
  for (const auto& domain : options_.whitelist) {
    if (dnsDomainIs(host, domain)) return true;
  }
  return false;
}

void DomesticProxy::addToWhitelist(const std::string& domain) {
  if (std::find(options_.whitelist.begin(), options_.whitelist.end(),
                domain) == options_.whitelist.end())
    options_.whitelist.push_back(domain);
}

void DomesticProxy::removeFromWhitelist(const std::string& domain) {
  std::erase(options_.whitelist, domain);
}

void DomesticProxy::ensureTunnel(std::size_t slot) {
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "sc-mux",
                     options_.remote.str());
  auto direct = stack_.directConnector(tag_);
  direct->connect(
      transport::ConnectTarget::byAddress(options_.remote),
      [this, slot, span](transport::Stream::Ptr wire) {
        if (wire == nullptr) {
          if (auto* sp = obs::spansOf(stack_.sim()))
            sp->end(span, obs::SpanStatus::kError);
          // Remote unreachable: retry with backoff.
          stack_.sim().schedule(5 * sim::kSecond,
                                [this, slot] { ensureTunnel(slot); });
          return;
        }
        if (auto* sp = obs::spansOf(stack_.sim()))
          sp->end(span, obs::SpanStatus::kOk);
        Tunnel::Options topts;
        topts.secret = options_.tunnel_secret;
        topts.blinding_mode = options_.blinding_mode;
        topts.client_side = true;
        auto tunnel = Tunnel::create(std::move(wire), stack_.sim(),
                                     std::move(topts));
        tunnel->setOnClose([this, slot] {
          tunnels_[slot] = nullptr;
          stack_.sim().schedule(sim::kSecond,
                                [this, slot] { ensureTunnel(slot); });
        });
        tunnels_[slot] = std::move(tunnel);
      });
}

void DomesticProxy::withTunnel(std::function<void(Tunnel::Ptr)> fn,
                               int retries_left) {
  if (Tunnel::Ptr tunnel = pickTunnel()) {
    fn(std::move(tunnel));
    return;
  }
  if (retries_left <= 0) {
    fn(nullptr);
    return;
  }
  // Pool exhausted (all slots dialing or dead): this retry is the signal
  // autoscalers act on, so make it observable before waiting it out.
  if (c_pool_saturation_ != nullptr) c_pool_saturation_->inc();
  if (obs::Tracer* tracer = obs::tracerOf(stack_.sim())) {
    obs::Event ev;
    ev.at = stack_.sim().now();
    ev.type = obs::EventType::kPoolSaturation;
    ev.what = "tunnel_pool";
    ev.tag = tag_;
    ev.a = retries_left;
    tracer->record(std::move(ev));
  }
  stack_.sim().schedule(200 * sim::kMillisecond,
                        [this, fn = std::move(fn), retries_left]() mutable {
                          withTunnel(std::move(fn), retries_left - 1);
                        });
}

void DomesticProxy::openProxiedStream(net::Ipv4 client,
                                      transport::ConnectTarget target,
                                      bool passthrough,
                                      TunnelProvider::StreamHandler fn) {
  if (provider_ != nullptr) {
    // The provider (e.g. the fleet) records its own pick span.
    provider_->withStream(client, target, passthrough, std::move(fn));
    return;
  }
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kProxyHop, tag_, "pool-pick");
  withTunnel([this, span, target = std::move(target), passthrough,
              fn = std::move(fn)](Tunnel::Ptr tunnel) mutable {
    transport::Stream::Ptr stream =
        tunnel == nullptr ? nullptr : tunnel->openStream(target, passthrough);
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(span, stream != nullptr ? obs::SpanStatus::kOk
                                      : obs::SpanStatus::kError);
    fn(std::move(stream));
  });
}

net::Ipv4 DomesticProxy::peerOf(const http::Request& req) {
  if (const auto peer = req.headers.get(http::HttpServer::kPeerHeader)) {
    if (const auto ip = net::Ipv4::parse(*peer)) {
      users_.insert(*ip);
      return *ip;
    }
  }
  return net::Ipv4{};
}

Tunnel::Ptr DomesticProxy::pickTunnel() {
  for (std::size_t i = 0; i < tunnels_.size(); ++i) {
    const std::size_t idx = (next_tunnel_ + i) % tunnels_.size();
    if (tunnels_[idx] != nullptr && tunnels_[idx]->connected()) {
      next_tunnel_ = idx + 1;
      return tunnels_[idx];
    }
  }
  return nullptr;
}

void DomesticProxy::rotateBlinding(std::uint32_t new_epoch) {
  epoch_ = new_epoch;
  if (c_rotations_ != nullptr) c_rotations_->inc();
  for (auto& tunnel : tunnels_) {
    if (tunnel != nullptr) tunnel->rotateBlinding(new_epoch);
  }
}

void DomesticProxy::autoRotateBlinding(sim::Time interval) {
  rotate_timer_.cancel();
  if (interval <= 0) return;
  rotate_timer_ = stack_.sim().schedule(interval, [this, interval] {
    rotateBlinding(epoch_ + 1);
    autoRotateBlinding(interval);
  });
}

void DomesticProxy::enableSocks(net::Port port) {
  socks_ = std::make_unique<http::SocksServer>(
      [this](transport::ConnectTarget target, transport::Stream::Ptr client,
             std::function<void(bool)> respond) {
        onSocksRequest(std::move(target), std::move(client),
                       std::move(respond));
      });
  socks_listener_ = stack_.tcpListen(
      port, [this](transport::TcpSocket::Ptr sock) { socks_->accept(sock); });
}

void DomesticProxy::onSocksRequest(transport::ConnectTarget target,
                                   transport::Stream::Ptr client,
                                   std::function<void(bool)> respond) {
  // Same whitelist discipline as the HTTP paths: this extension widens the
  // *protocols* ScholarCloud can carry, never the *destinations*.
  if (!target.byName() || !isWhitelisted(target.host)) {
    noteDenied();
    respond(false);
    return;
  }
  openProxiedStream(
      net::Ipv4{}, std::move(target), /*passthrough=*/false,
      [this, client = std::move(client),
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        if (stream == nullptr) {
          noteDenied();
          respond(false);
          return;
        }
        noteProxied();
        ++socks_streams_;
        respond(true);
        transport::bridgeStreams(std::move(client), std::move(stream));
      });
}

void DomesticProxy::handleHttpRequest(const http::Request& req,
                                      http::HttpServer::Respond respond) {
  const auto url = http::Url::parse(req.target);
  const std::string host = url ? url->host : req.host();
  const net::Ipv4 client = peerOf(req);

  if (!url.has_value() || !isWhitelisted(host)) {
    noteDenied();
    http::Response resp;
    resp.status = 403;
    resp.reason = http::statusReason(403);
    resp.body = toBytes("host not on the registered whitelist");
    respond(std::move(resp));
    return;
  }

  // Domestic-side cache: a repeat GET never crosses the border link.
  ResponseCache* cache =
      provider_ != nullptr ? provider_->responseCache() : nullptr;
  const bool cacheable = cache != nullptr && req.method == "GET";
  const std::string cache_key = host + url->path;
  if (cacheable) {
    const auto hit = cache->lookup(cache_key);
    // Zero-duration span: the consult is synchronous, but hit/miss counts
    // per access feed the phase breakdown.
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(sp->begin(obs::SpanKind::kCacheLookup, tag_,
                        hit != nullptr ? "hit" : "miss", cache_key),
              obs::SpanStatus::kOk, hit != nullptr ? 1 : 0);
    if (hit != nullptr) {
      ++cache_hits_;
      if (c_cache_hits_ != nullptr) c_cache_hits_->inc();
      noteProxied();
      // The stored entry is shared and immutable: mark a copy.
      http::Response resp = *hit;
      resp.headers.set("x-cache", "hit");
      respond(std::move(resp));
      return;
    }
  }

  openProxiedStream(
      client, transport::ConnectTarget::byHostname(host, url->port),
      /*passthrough=*/false,
      [this, req, url, cacheable, cache_key,
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        // Plain HTTP rides an AES-encrypted tunnel stream (the "HTTPS-like
        // encrypted tunnel" of §3's data-security paragraph).
        if (stream == nullptr) {
          noteDenied();
          http::Response resp;
          resp.status = 502;
          resp.reason = http::statusReason(502);
          respond(std::move(resp));
          return;
        }
        noteProxied();
        http::Request upstream_req = req;
        upstream_req.target = url->path;  // absolute-form to origin-form
        upstream_req.headers.set("via", "scholarcloud/1.0");
        http::HttpClient::fetchOn(
            stream, stack_.sim(), std::move(upstream_req), 40 * sim::kSecond,
            [this, stream, cacheable, cache_key = std::move(cache_key),
             respond = std::move(respond)](std::optional<http::Response> r) {
              stream->close();
              if (!r.has_value()) {
                http::Response resp;
                resp.status = 504;
                resp.reason = http::statusReason(504);
                respond(std::move(resp));
                return;
              }
              if (cacheable && r->status == 200) {
                if (ResponseCache* c = provider_ != nullptr
                                           ? provider_->responseCache()
                                           : nullptr)
                  c->insert(cache_key, *r);
              }
              respond(std::move(*r));
            });
      });
}

void DomesticProxy::handleConnect(const http::Request& req,
                                  transport::Stream::Ptr client,
                                  http::HttpServer::Respond respond) {
  // CONNECT target is authority-form "host:port".
  const auto parts = splitString(req.target, ':');
  const std::string host = parts.empty() ? "" : parts[0];
  net::Port port = 443;
  if (parts.size() >= 2) {
    int p = 0;
    for (char c : parts[1])
      if (c >= '0' && c <= '9') p = p * 10 + (c - '0');
    if (p > 0 && p <= 65535) port = static_cast<net::Port>(p);
  }
  const net::Ipv4 peer = peerOf(req);

  http::Response resp;
  if (!isWhitelisted(host)) {
    noteDenied();
    resp.status = 403;
    resp.reason = http::statusReason(403);
    respond(std::move(resp));
    client->close();
    return;
  }
  // HTTPS is already end-to-end encrypted: passthrough stream, no double
  // encryption (§3, "Data security and privacy").
  openProxiedStream(
      peer, transport::ConnectTarget::byHostname(host, port),
      /*passthrough=*/true,
      [this, client = std::move(client),
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        http::Response resp;
        if (stream == nullptr) {
          noteDenied();
          resp.status = 502;
          resp.reason = http::statusReason(502);
          respond(std::move(resp));
          client->close();
          return;
        }
        noteProxied();
        resp.status = 200;
        resp.reason = "Connection Established";
        respond(std::move(resp));
        transport::bridgeStreams(std::move(client), std::move(stream));
      });
}

}  // namespace sc::core
