#include "fleet/cache.h"

#include "util/hash.h"

namespace sc::fleet {

ShardedLruCache::ShardedLruCache(sim::Simulator& sim, CacheOptions options)
    : sim_(sim), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.capacity_per_shard == 0) options_.capacity_per_shard = 1;
  shards_.resize(options_.shards);
  if (obs::Registry* reg = obs::registryOf(sim_)) {
    c_hits_ = reg->counter("sc.fleet.cache_hits");
    c_misses_ = reg->counter("sc.fleet.cache_misses");
    c_evictions_ = reg->counter("sc.fleet.cache_evictions");
  }
}

std::size_t ShardedLruCache::shardOf(const std::string& key) const {
  return static_cast<std::size_t>(fnv1a(key) % shards_.size());
}

std::shared_ptr<const http::Response> ShardedLruCache::lookup(
    const std::string& key) {
  const std::size_t si = shardOf(key);
  Shard& shard = shards_[si];
  const auto it = shard.index.find(key);
  std::shared_ptr<const http::Response> out;
  if (it != shard.index.end()) {
    if (it->second->expires > sim_.now()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      out = it->second->response;
    } else {
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
  }
  const bool hit = out != nullptr;
  if (hit) {
    ++hits_;
    if (c_hits_ != nullptr) c_hits_->inc();
  } else {
    ++misses_;
    if (c_misses_ != nullptr) c_misses_->inc();
  }
  if (obs::Tracer* tracer = obs::tracerOf(sim_)) {
    obs::Event ev;
    ev.at = sim_.now();
    ev.type = obs::EventType::kCacheLookup;
    ev.what = hit ? "hit" : "miss";
    ev.detail = key;
    ev.a = static_cast<std::int64_t>(si);
    tracer->record(std::move(ev));
  }
  return out;
}

void ShardedLruCache::insert(const std::string& key, http::Response resp) {
  auto entry = std::make_shared<const http::Response>(std::move(resp));
  Shard& shard = shards_[shardOf(key)];
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->response = std::move(entry);
    it->second->expires = sim_.now() + options_.ttl;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= options_.capacity_per_shard) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++evictions_;
    if (c_evictions_ != nullptr) c_evictions_->inc();
  }
  shard.lru.push_front(Entry{key, std::move(entry), sim_.now() + options_.ttl});
  shard.index[key] = shard.lru.begin();
}

std::size_t ShardedLruCache::entries() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.lru.size();
  return n;
}

}  // namespace sc::fleet
