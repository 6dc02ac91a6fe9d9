// GFW border hot path, the numbers behind the compiled-DPI rework:
//
//   1. packets/sec through the inspector pipeline — gfw::Inspector, the
//      compiled path the GFW runs (one PayloadScanner pass + automaton
//      prefilter + suffix-index confirm), vs the pre-rework replica in
//      tests/dpi_oracle.h (string-copying ClientHello parse, splitString
//      Host extraction, separate entropy and printable walks, vector-scan
//      domain blocklist) over the same traffic corpus;
//   2. equivalence: both paths classify every packet and the (class, rst)
//      verdict sequences are FNV-hashed — the hashes must match;
//   3. blocklist churn: mutation waves with the lazy recompile discipline,
//      reporting per-recompile cost and the throughput retained vs steady
//      state;
//   4. serial vs parallel campaign sweep over identical cells (the full
//      simulator, GFW inspectors included), checked for identical results.
//
// Writes BENCH_gfw.json to the working directory; exits non-zero when either
// equivalence check fails. Env knobs (CI smoke passes tiny values):
//   SC_BENCH_GFW_PACKETS   packets per timed inspector run  (default 200000)
//   SC_BENCH_GFW_DOMAINS   filler domains in the blocklist  (default 512 —
//                          small next to the real GFW's list, large enough
//                          that the linear scan's O(domains) cost per web
//                          packet shows)
//   SC_BENCH_GFW_WAVES     blocklist mutation waves         (default 16)
//   SC_BENCH_SCALE_CLIENTS campaign cell sizes              (default 4,8,12)
//   SC_BENCH_THREADS       parallel workers                 (default hardware)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dpi_oracle.h"
#include "gfw/blocklist.h"
#include "gfw/classifier.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace {

using sc::Bytes;
using sc::gfw::ClassifierThresholds;

// The Inspector's lazy recompiles, counted and timed. The bench calls
// refresh() itself before the first packet after a blocklist bump — exactly
// where classify() would recompile — so the compile cost can be clocked.
struct RecompileClock {
  std::uint64_t count = 0;
  double seconds = 0;

  void refresh(sc::gfw::Inspector& inspector) {
    const sc::bench::Stopwatch clock;
    if (!inspector.refresh()) return;
    seconds += clock.seconds();
    ++count;
  }
};

// ---------------------------------------------------------------------------
// Deterministic traffic corpus: the border mix the inspectors see — HTTP in
// the clear (benign, blocked, absolute-URI), TLS ClientHellos (benign SNI,
// blocked SNI, Tor fingerprint), ciphertext first packets, plain text, VPN
// protocol ports, and shorties below the classify floor.

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

Bytes httpGet(const std::string& host, const std::string& path = "/") {
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nUser-Agent: bench/1.0\r\nAccept: */*\r\n\r\n";
  return sc::toBytes(req);
}

Bytes clientHello(const std::string& sni, const std::string& fp) {
  Bytes out;
  sc::appendU8(out, 0x16);
  sc::appendU16(out, 0x0303);
  sc::appendU16(out, static_cast<std::uint16_t>(5 + sni.size() + fp.size()));
  sc::appendU8(out, 1);
  sc::appendU16(out, static_cast<std::uint16_t>(sni.size()));
  sc::appendBytes(out, sc::toBytes(sni));
  sc::appendU16(out, static_cast<std::uint16_t>(fp.size()));
  sc::appendBytes(out, sc::toBytes(fp));
  return out;
}

Bytes randomBytes(std::uint64_t& s, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(xorshift(s) & 0xFF);
  return out;
}

Bytes randomText(std::uint64_t& s, std::size_t n) {
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<std::uint8_t>(0x20 + (xorshift(s) % 95));
  return out;
}

sc::net::Packet tcpPacket(Bytes payload, sc::net::Port dst_port) {
  sc::net::TcpFlags flags;
  flags.ack = true;
  flags.psh = true;
  return sc::net::makeTcp(sc::net::Ipv4(10, 0, 0, 2),
                          sc::net::Ipv4(203, 0, 113, 7), 40001, dst_port,
                          flags, 1, 1, std::move(payload));
}

std::vector<sc::net::Packet> buildCorpus() {
  std::uint64_t seed = 0x5EEDC0DE5EEDC0DEULL;
  std::vector<sc::net::Packet> corpus;
  corpus.push_back(tcpPacket(httpGet("example.com"), 80));
  corpus.push_back(tcpPacket(httpGet("scholar.google.com", "/scholar?q=dpi"), 80));
  corpus.push_back(tcpPacket(httpGet("cdn.jsdelivr.net", "/npm/app.js"), 80));
  corpus.push_back(
      tcpPacket(sc::toBytes("GET http://www.youtube.com/watch?v=x HTTP/1.1\r\n"
                            "Accept: */*\r\n\r\n"),
                80));
  corpus.push_back(
      tcpPacket(sc::toBytes("GET / HTTP/1.1\r\nhOsT:  News.Ycombinator.com \r\n"
                            "Connection: close\r\n\r\n"),
                80));
  corpus.push_back(tcpPacket(clientHello("static.example.org", "chrome/123"), 443));
  corpus.push_back(tcpPacket(clientHello("drive.google.com", "chrome/123"), 443));
  corpus.push_back(tcpPacket(clientHello("ajax.example.com", "tor-browser/13"), 443));
  // Candidate-but-not-blocked: the automaton sees "google.com" inside the
  // SNI, the exact suffix index rejects it (no dot boundary).
  corpus.push_back(tcpPacket(clientHello("google.com.cn", "chrome/123"), 443));
  corpus.push_back(tcpPacket(randomBytes(seed, 512), 8388));
  corpus.push_back(tcpPacket(randomBytes(seed, 96), 8388));
  corpus.push_back(tcpPacket(randomText(seed, 256), 9000));
  corpus.push_back(tcpPacket(Bytes{0x01, 0x00, 0x10, 0x00}, 1723));
  Bytes ovpn = randomBytes(seed, 64);
  ovpn[0] = 0x38;
  corpus.push_back(tcpPacket(std::move(ovpn), 1194));
  corpus.push_back(tcpPacket(randomBytes(seed, 16), 9000));
  corpus.push_back(tcpPacket(httpGet("www.facebook.com"), 80));
  return corpus;
}

std::vector<std::string> blocklistDomains(int filler) {
  std::vector<std::string> domains = {
      "google.com",    "facebook.com", "twitter.com",  "youtube.com",
      ".wikipedia.org", "instagram.com", "blogspot.com"};
  for (int i = 0; i < filler; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "blocked-%03d.example-block.net", i);
    domains.emplace_back(buf);
  }
  return domains;
}

// Verdict streams digest through the shared util FNV-1a (util/hash.h); the
// uint16 overload mixes both verdict bytes little-endian, matching the
// digest this bench has always emitted.
std::uint64_t fnv1a(std::uint64_t h, std::uint16_t v) {
  sc::Fnv1a acc(h);
  acc.add(v);
  return acc.value();
}
constexpr std::uint64_t kFnvOffset = sc::kFnv1aOffset;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main() {
  using namespace sc;
  const long long n_packets = bench::intFromEnv("SC_BENCH_GFW_PACKETS", 200000);
  const int n_filler = bench::intFromEnv("SC_BENCH_GFW_DOMAINS", 512);
  const int n_waves = bench::intFromEnv("SC_BENCH_GFW_WAVES", 16);
  std::vector<int> cells = bench::parseIntList("SC_BENCH_SCALE_CLIENTS");
  if (cells.empty()) cells = {4, 8, 12};
  const unsigned threads = bench::threadsFromEnv();

  std::printf("GFW throughput — compiled DPI vs legacy inspectors\n");

  const auto corpus = buildCorpus();
  const auto domains = blocklistDomains(n_filler);
  const ClassifierThresholds thresholds;

  dpi_oracle::LegacyDomainBlocklist legacy_domains;
  gfw::DomainBlocklist blocklist;
  gfw::Inspector inspector(blocklist);
  RecompileClock recompiles;
  for (const auto& d : domains) {
    legacy_domains.add(d);
    blocklist.add(d);
  }
  recompiles.refresh(inspector);
  const std::uint64_t compile_warmup = recompiles.count;
  const double full_compile_s = recompiles.seconds;

  // --- 1+2: timed inspector runs, verdict hashes accumulated in-loop ------
  std::uint64_t legacy_hash = kFnvOffset;
  long long legacy_done = 0;
  const bench::Stopwatch legacy_clock;
  while (legacy_done < n_packets) {
    for (const auto& pkt : corpus) {
      legacy_hash = fnv1a(legacy_hash, dpi_oracle::legacyVerdict(
                                           pkt, legacy_domains, thresholds));
      ++legacy_done;
    }
  }
  const double legacy_s = legacy_clock.seconds();
  const double legacy_pps = static_cast<double>(legacy_done) / legacy_s;

  std::uint64_t new_hash = kFnvOffset;
  long long new_done = 0;
  const bench::Stopwatch new_clock;
  while (new_done < n_packets) {
    for (const auto& pkt : corpus) {
      new_hash = fnv1a(new_hash, dpi_oracle::inspectorVerdict(inspector, pkt,
                                                              thresholds));
      ++new_done;
    }
  }
  const double new_s = new_clock.seconds();
  const double new_pps = static_cast<double>(new_done) / new_s;
  const double speedup = legacy_pps > 0 ? new_pps / legacy_pps : 0;
  const bool verdicts_match = legacy_hash == new_hash;
  const std::uint64_t steady_hash = new_hash;

  std::printf("  inspect: %.3g pkts/s (legacy %.3g, speedup %.2fx)\n", new_pps,
              legacy_pps, speedup);
  std::printf("  verdict hash: %s vs %s — %s\n", hex64(new_hash).c_str(),
              hex64(legacy_hash).c_str(), verdicts_match ? "match" : "DIFFER");

  // --- 3: blocklist churn with lazy recompile -----------------------------
  // Each wave mutates the blocklist (fleet-churn shape: add one, retire an
  // older one every second wave), then a batch of packets flows through. The
  // recompile is lazy — it lands on the first packet after the bump.
  const std::uint64_t pre_churn_recompiles = recompiles.count;
  const double pre_churn_recompile_s = recompiles.seconds;
  long long churn_done = 0;
  std::uint64_t churn_hash = kFnvOffset;
  const long long batch =
      std::max<long long>(1, n_packets / std::max(1, n_waves));
  const bench::Stopwatch churn_clock;
  for (int w = 0; w < n_waves; ++w) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w);
    blocklist.add(buf);
    if (w % 2 == 1) {
      std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w - 1);
      blocklist.remove(buf);
    }
    recompiles.refresh(inspector);
    long long in_wave = 0;
    while (in_wave < batch) {
      for (const auto& pkt : corpus) {
        churn_hash = fnv1a(churn_hash, dpi_oracle::inspectorVerdict(
                                           inspector, pkt, thresholds));
        ++in_wave;
        ++churn_done;
        if (in_wave >= batch) break;
      }
    }
  }
  const double churn_s = churn_clock.seconds();
  const double churn_pps = static_cast<double>(churn_done) / churn_s;
  const std::uint64_t churn_recompiles = recompiles.count - pre_churn_recompiles;
  const double churn_recompile_s = recompiles.seconds - pre_churn_recompile_s;
  const double retained = new_pps > 0 ? churn_pps / new_pps : 0;
  const double recompile_mean_s =
      churn_recompiles > 0
          ? churn_recompile_s / static_cast<double>(churn_recompiles)
          : 0;
  // One recompile costs the same as scanning this many packets at steady
  // state — the number a deployment compares against its churn cadence.
  const double amortize_packets = recompile_mean_s * new_pps;
  std::printf(
      "  churn: %d waves, %llu recompiles (%.3f ms each, ~%.0f packets to "
      "amortize), %.3g pkts/s (%.0f%% of steady)\n",
      n_waves, static_cast<unsigned long long>(churn_recompiles),
      1e3 * recompile_mean_s, amortize_packets, churn_pps, 100 * retained);

  // --- 4: serial vs parallel campaign sweep (full stack, GFW inline) ------
  const auto campaign = bench::runCampaignSweepIdentity(
      measure::Method::kShadowsocks, cells, threads);
  campaign.print();

  bench::JsonArtifact jw("BENCH_gfw.json");
  if (!jw.ok()) return 1;
  jw.beginObject("inspect")
      .field("packets", new_done)
      .field("corpus_payloads", corpus.size())
      .field("blocklist_domains", domains.size())
      .field("automaton_patterns", inspector.engine().automaton().patternCount())
      .field("automaton_states", inspector.engine().automaton().stateCount())
      .field("new_packets_per_sec", new_pps)
      .field("legacy_packets_per_sec", legacy_pps)
      .field("speedup", speedup)
      .endObject();
  jw.beginObject("equivalence")
      .field("verdict_hash_new", hex64(steady_hash))
      .field("verdict_hash_legacy", hex64(legacy_hash))
      .field("verdicts_match_legacy", verdicts_match)
      .endObject();
  jw.beginObject("churn")
      .field("waves", n_waves)
      .field("packets", churn_done)
      .field("recompiles", churn_recompiles)
      .field("recompile_ms_mean", 1e3 * recompile_mean_s)
      .field("amortize_packets", amortize_packets)
      .field("full_compile_ms", 1e3 * full_compile_s /
                                    static_cast<double>(
                                        std::max<std::uint64_t>(1, compile_warmup)))
      .field("packets_per_sec", churn_pps)
      .field("throughput_retained", retained)
      .field("verdict_hash_churn", hex64(churn_hash))
      .endObject();
  campaign.write(jw);
  jw.close();
  return verdicts_match && campaign.runs.match ? 0 : 1;
}
