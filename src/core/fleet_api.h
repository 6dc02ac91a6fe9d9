// Seams between the domestic proxy and the fleet subsystem.
//
// sc_fleet links sc_core (it dials Tunnels to RemoteProxy endpoints), so the
// domestic proxy cannot name fleet types directly without a cycle. Instead it
// talks to two abstract interfaces defined here and implemented one layer up:
//
//   - TunnelProvider: hands out proxied streams to a target. The single
//     built-in RemoteProxy keeps the legacy in-proxy tunnel pool; installing
//     a provider (fleet::Fleet) routes every stream open through balancing,
//     health state and failover instead.
//   - ResponseCache: a domestic-side response cache consulted before a GET
//     ever crosses the border link. fleet::ShardedLruCache implements it.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "http/message.h"
#include "net/address.h"
#include "transport/stream.h"

namespace sc::core {

class ResponseCache {
 public:
  virtual ~ResponseCache() = default;

  // The stored entry, or nullptr on miss or expiry. Entries are immutable
  // and shared: a caller that needs to change a hit copies it first, and a
  // later insert under the same key replaces the pointer, never the object.
  virtual std::shared_ptr<const http::Response> lookup(
      const std::string& key) = 0;
  virtual void insert(const std::string& key, http::Response resp) = 0;
};

class TunnelProvider {
 public:
  virtual ~TunnelProvider() = default;

  using StreamHandler = std::function<void(transport::Stream::Ptr)>;

  // Invokes `fn` with a stream to `target` through some healthy egress, or
  // nullptr when none could be found. `client` keys session affinity
  // (net::Ipv4{} when the peer is unknown); `passthrough` carries the usual
  // no-double-encryption flag through to Tunnel::openStream.
  virtual void withStream(net::Ipv4 client,
                          const transport::ConnectTarget& target,
                          bool passthrough, StreamHandler fn) = 0;

  // Optional domestic-side response cache; nullptr when the provider does
  // not cache (the domestic proxy then always forwards).
  virtual ResponseCache* responseCache() { return nullptr; }
};

}  // namespace sc::core
