#include "population/scheduler.h"

#include <cmath>

#include "http/message.h"
#include "util/hash.h"

namespace sc::population {

namespace {

constexpr std::uint64_t kSchedulerRngLabel = 0x5c'0b'9e'31ULL;

// Campus client address space for background affinity: 10.3.128.0/17 (the
// packet cohort's clients live lower in 10.3.0.0/16, so leases never alias
// a real client's affinity entry).
net::Ipv4 backgroundClient(std::uint64_t user_id) {
  return net::Ipv4(0x0A038000u | static_cast<std::uint32_t>(user_id & 0x7FFF));
}

}  // namespace

std::uint64_t SchedulerStats::digest() const noexcept {
  Fnv1a h;
  h.add(ticks);
  h.add(arrivals);
  h.add(blocked);
  h.add(border_crossings);
  h.add(fleet_leases);
  h.add(lease_denied);
  for (const auto& m : by_method) {
    h.add(m.accesses);
    h.add(m.ok);
    h.add(m.first_visits);
    h.add(m.cache_hits);
    h.add(m.plt_sum_s);
    h.add(m.rtt_sum_ms);
    h.add(m.plr_sum_pct);
    h.add(m.bytes_sum);
  }
  return h.value();
}

HybridScheduler::HybridScheduler(sim::Simulator& sim, PopulationModel model,
                                 FlowModel flow, fleet::Fleet* fleet,
                                 SchedulerOptions options)
    : sim_(sim),
      model_(std::move(model)),
      flow_(std::move(flow)),
      fleet_(fleet),
      options_(options),
      rng_(sim.rng().fork(kSchedulerRngLabel)),
      acc_(model_.classes().size(), 0.0),
      visited_(model_.scholars(), false) {
  if (obs::Registry* reg = obs::registryOf(sim_)) {
    c_accesses_ = reg->counter("sc.population.accesses");
    c_ok_ = reg->counter("sc.population.ok");
    c_blocked_ = reg->counter("sc.population.blocked");
    c_cache_hits_ = reg->counter("sc.population.cache_hits");
    c_border_ = reg->counter("sc.population.border_crossings");
    c_leases_ = reg->counter("sc.population.fleet_leases");
    c_lease_denied_ = reg->counter("sc.population.lease_denied");
    g_rate_ = reg->gauge("sc.population.rate_per_s");
    h_plt_ = reg->histogram("sc.population.plt_us");
  }
}

sim::Time HybridScheduler::dayTime(sim::Time t) const {
  const double scaled = static_cast<double>(t) * options_.time_scale;
  return options_.day_phase + static_cast<sim::Time>(scaled);
}

void HybridScheduler::start(sim::Time horizon) {
  sim_.schedule(options_.tick, [this, horizon] { tick(horizon); });
}

void HybridScheduler::tick(sim::Time horizon) {
  const sim::Time day = dayTime(sim_.now());
  const double tick_s =
      static_cast<double>(options_.tick) / static_cast<double>(sim::kSecond);
  ++stats_.ticks;

  std::uint64_t slice_arrivals = 0;
  double total_rate = 0;
  for (std::size_t i = 0; i < model_.classes().size(); ++i) {
    // Effective arrivals per sim-second: the diurnal rate at the (scaled)
    // day clock, times time_scale so a compressed day still integrates to
    // the same per-day total, times the what-if load knob.
    const double rate = model_.classRatePerSecond(i, day) *
                        options_.time_scale * options_.rate_scale;
    total_rate += rate;
    acc_[i] += rate * tick_s;
    const auto n = static_cast<std::uint64_t>(acc_[i]);
    acc_[i] -= static_cast<double>(n);
    for (std::uint64_t k = 0; k < n; ++k) oneArrival(i);
    slice_arrivals += n;
  }
  if (g_rate_ != nullptr) g_rate_->set(total_rate);
  trace("tick", "", static_cast<std::int64_t>(slice_arrivals));

  if (sim_.now() + options_.tick < horizon)
    sim_.schedule(options_.tick, [this, horizon] { tick(horizon); });
}

LoadState HybridScheduler::loadState(Method m, int query_rank) const {
  LoadState ls;
  // The fleet is ScholarCloud's infrastructure; VPN/Tor/Shadowsocks paths
  // don't touch it, so its utilization must not inflate their latency.
  if (fleet_ == nullptr || m != Method::kScholarCloud) return ls;
  const double capacity = static_cast<double>(fleet_->size()) *
                          static_cast<double>(options_.streams_per_endpoint);
  if (capacity > 0)
    ls.utilization =
        static_cast<double>(fleet_->activeStreams()) / capacity;
  if (fleet_->cache() != nullptr) {
    // A real lookup, not a peek: it touches the LRU and the shared
    // sc.domestic.cache_* counters, exactly as a proxied GET would.
    ls.cache_hit = fleet_->cache()->lookup(
                       PopulationModel::queryCacheKey(query_rank)) != nullptr;
  }
  return ls;
}

void HybridScheduler::oneArrival(std::size_t class_idx) {
  // Fixed draw schedule per arrival — user, query, then the flow sample's
  // two — so arrival N's randomness never depends on what earlier arrivals
  // did with theirs.
  const std::uint64_t user = model_.sampleUser(class_idx, rng_);
  const int rank = model_.sampleQueryRank(rng_);
  const Method method = model_.methodOf(user);
  const bool first = !visited_[user];
  visited_[user] = true;

  const LoadState ls = loadState(method, rank);
  const FlowAccess fa = flow_.sample(method, first, ls, rng_);

  ++stats_.arrivals;
  MethodStats& ms = stats_.by_method[static_cast<std::size_t>(method)];
  ++ms.accesses;
  if (first) ++ms.first_visits;
  if (c_accesses_ != nullptr) c_accesses_->inc();

  if (!fa.ok) {
    ++stats_.blocked;
    if (c_blocked_ != nullptr) c_blocked_->inc();
    return;
  }

  ++ms.ok;
  ms.plt_sum_s += fa.plt_s;
  ms.rtt_sum_ms += fa.rtt_ms;
  ms.plr_sum_pct += fa.plr_pct;
  ms.bytes_sum += fa.bytes;
  if (c_ok_ != nullptr) c_ok_->inc();
  if (h_plt_ != nullptr) h_plt_->observe(fa.plt_s * 1e6);
  if (fa.crossed_border) {
    ++stats_.border_crossings;
    if (c_border_ != nullptr) c_border_->inc();
  }
  if (ls.cache_hit) {
    ++ms.cache_hits;
    if (c_cache_hits_ != nullptr) c_cache_hits_->inc();
  }

  if (method != Method::kScholarCloud || fleet_ == nullptr) return;

  if (!ls.cache_hit) {
    // Warm the shared cache with the page this access fetched — the next
    // scholar (flow-level OR packet-level) hits it domestically.
    if (fleet_->cache() != nullptr) {
      http::Response resp;
      resp.headers.set("content-type", "text/html");
      resp.headers.set("x-population", "1");
      resp.body.assign(2048, std::uint8_t{'p'});
      fleet_->cache()->insert(PopulationModel::queryCacheKey(rank),
                              std::move(resp));
    }
    // Occupy a balancer slot for the modeled page-load time: the load the
    // autoscaler and the packet cohort actually see.
    const auto lease = fleet_->leaseBackgroundSlot(backgroundClient(user));
    if (lease.has_value()) {
      ++stats_.fleet_leases;
      if (c_leases_ != nullptr) c_leases_->inc();
      const auto hold = static_cast<sim::Time>(
          fa.plt_s * static_cast<double>(sim::kSecond));
      const int id = *lease;
      sim_.schedule(hold, [this, id] { fleet_->releaseBackgroundSlot(id); });
    } else {
      ++stats_.lease_denied;
      if (c_lease_denied_ != nullptr) c_lease_denied_->inc();
    }
  }
}

void HybridScheduler::trace(const char* what, const std::string& detail,
                            std::int64_t a) {
  obs::Tracer* tracer = obs::tracerOf(sim_);
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = sim_.now();
  ev.type = obs::EventType::kPopulationTick;
  ev.what = what;
  ev.detail = detail;
  ev.a = a;
  tracer->record(std::move(ev));
}

}  // namespace sc::population
