// Core hot-path throughput, the numbers behind the event-loop rework:
//
//   1. events/sec through sim::Simulator (inline callbacks, generation
//      cancellation, flat 4-ary heap) on a schedule/cancel/re-arm workload;
//   2. packets/sec across a two-node link (the stash-based delivery path);
//   3. serial vs parallel campaign wall clock over identical cells, plus a
//      check that both produce identical results.
//
// Writes BENCH_core.json to the working directory. Env knobs (CI smoke
// passes tiny values):
//   SC_BENCH_EVENTS         events per loop run       (default 2000000)
//   SC_BENCH_PACKETS        packets across the link   (default 200000)
//   SC_BENCH_SCALE_CLIENTS  campaign cell sizes       (default 5,10,15,20)
//   SC_BENCH_THREADS        parallel workers          (default hardware)
#include <functional>

#include "bench_common.h"

namespace {

using sc::sim::Time;

// The simulator's hot pattern: concurrent chains where each step re-arms a
// timeout (cancel + schedule, like a TCP RTO) and schedules its successor.
double eventsPerSec(long long target, std::uint64_t& executed) {
  constexpr int kChains = 64;
  sc::sim::Simulator sim;
  std::vector<sc::sim::EventHandle> timeouts(kChains);
  long long fired = 0;
  std::function<void(int)> step = [&](int c) {
    ++fired;
    timeouts[static_cast<std::size_t>(c)].cancel();
    timeouts[static_cast<std::size_t>(c)] = sim.schedule(1000, [] {});
    if (fired + kChains <= target) sim.schedule(1, [&step, c] { step(c); });
  };
  const sc::bench::Stopwatch clock;
  for (int c = 0; c < kChains; ++c) sim.schedule(1, [&step, c] { step(c); });
  sim.run();
  const double elapsed = clock.seconds();
  executed = sim.eventsExecuted();
  return static_cast<double>(executed) / elapsed;
}

// Ping-pong across one link with a window of packets in flight: every
// delivery exercises the stash + inline-closure path.
double packetsPerSec(long long target) {
  sc::sim::Simulator sim;
  sc::net::Network net(sim);
  auto& a = net.addNode("a");
  auto& b = net.addNode("b");
  sc::net::LinkParams params;
  params.prop_delay = 10 * sc::sim::kMicrosecond;
  params.bandwidth_bps = 1e12;
  params.max_queue_delay = 3600 * sc::sim::kSecond;  // never tail-drop
  auto& link = net.addLink(a, b, params, "wire");
  const sc::net::Ipv4 ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  a.attach(link, ip_a);
  b.attach(link, ip_b);
  a.setDefaultRoute(link);
  b.setDefaultRoute(link);

  long long delivered = 0;
  const auto bounce = [&](sc::net::Node& self, sc::net::Ipv4 self_ip,
                          sc::net::Ipv4 peer_ip) {
    return [&, self_ip, peer_ip](sc::net::Packet&& pkt) {
      ++delivered;
      if (delivered + 64 <= target) {
        pkt.src = self_ip;
        pkt.dst = peer_ip;
        pkt.id = 0;  // re-originate
        self.send(std::move(pkt));
      }
    };
  };
  a.setLocalHandler(bounce(a, ip_a, ip_b));
  b.setLocalHandler(bounce(b, ip_b, ip_a));

  const sc::bench::Stopwatch clock;
  for (int w = 0; w < 64; ++w) {
    a.send(sc::net::makeUdp(ip_a, ip_b, 1000, 2000,
                            sc::Bytes(256, static_cast<std::uint8_t>(w))));
  }
  sim.run();
  return static_cast<double>(delivered) / clock.seconds();
}

}  // namespace

int main() {
  using namespace sc;
  const long long n_events = bench::intFromEnv("SC_BENCH_EVENTS", 2000000);
  const long long n_packets = bench::intFromEnv("SC_BENCH_PACKETS", 200000);
  std::vector<int> cells = bench::parseIntList("SC_BENCH_SCALE_CLIENTS");
  if (cells.empty()) cells = {5, 10, 15, 20};
  const unsigned threads = bench::threadsFromEnv();

  std::printf("Core throughput — event loop, link delivery, parallel sweep\n");

  std::uint64_t executed = 0;
  const double eps = eventsPerSec(n_events, executed);
  std::printf("  events/sec: %.3g (%llu fired)\n", eps,
              static_cast<unsigned long long>(executed));

  const double pps = packetsPerSec(n_packets);
  std::printf("  packets/sec: %.3g\n", pps);

  const auto campaign = bench::runCampaignSweepIdentity(
      measure::Method::kScholarCloud, cells, threads);
  campaign.print();

  bench::JsonArtifact jw("BENCH_core.json");
  if (!jw.ok()) return 1;
  jw.beginObject("events")
      .field("requested", n_events)
      .field("fired", executed)
      .field("events_per_sec", eps)
      .endObject();
  jw.beginObject("packets")
      .field("requested", n_packets)
      .field("packets_per_sec", pps)
      .endObject();
  campaign.write(jw);
  jw.close();
  return campaign.runs.match ? 0 : 1;
}
