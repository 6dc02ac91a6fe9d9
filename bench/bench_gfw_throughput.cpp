// GFW border hot path, the numbers behind the compiled-DPI rework:
//
//   1. packets/sec through the inspector pipeline — the compiled path (one
//      PayloadScanner pass + automaton prefilter + suffix-index confirm) vs
//      an in-bench replica of the pre-rework inspectors (string-copying
//      ClientHello parse, splitString Host extraction, separate entropy and
//      printable walks, vector-scan domain blocklist) over the same traffic
//      corpus;
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
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "crypto/entropy.h"
#include "gfw/blocklist.h"
#include "gfw/classifier.h"
#include "gfw/dpi/engine.h"
#include "gfw/dpi/scanner.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/strings.h"

namespace {

using sc::Bytes;
using sc::ByteView;
using sc::gfw::ClassifierThresholds;
using sc::gfw::FlowClass;

// ---------------------------------------------------------------------------
// Replica of the pre-rework inspectors, kept as the fixed baseline the
// packets/sec ratio is measured against. Every quirk is intentional: the
// ClientHello parse copies both fields into strings, the Host extraction
// copies the payload into a std::string and splits it into a line vector,
// entropy and printable fraction each re-walk the payload, and the domain
// blocklist is a linear dnsDomainIs scan.

struct LegacyTlsHelloInfo {
  std::string sni;
  std::string fingerprint;
};

std::optional<LegacyTlsHelloInfo> legacyParseClientHello(ByteView payload) {
  std::size_t off = 0;
  std::uint8_t rec_type = 0, msg_tag = 0;
  std::uint16_t version = 0, rec_len = 0;
  if (!sc::readU8(payload, off, rec_type) || rec_type != 0x16)
    return std::nullopt;
  if (!sc::readU16(payload, off, version) || !sc::readU16(payload, off, rec_len))
    return std::nullopt;
  if (!sc::readU8(payload, off, msg_tag) || msg_tag != 1) return std::nullopt;

  LegacyTlsHelloInfo info;
  std::uint16_t len = 0;
  Bytes raw;
  if (!sc::readU16(payload, off, len) || !sc::readBytes(payload, off, len, raw))
    return std::nullopt;
  info.sni = sc::toString(raw);
  if (!sc::readU16(payload, off, len) || !sc::readBytes(payload, off, len, raw))
    return std::nullopt;
  info.fingerprint = sc::toString(raw);
  return info;
}

std::optional<std::string> legacyExtractHttpHost(ByteView payload) {
  const std::string text = sc::toString(payload);
  static constexpr const char* kMethods[] = {"GET ",  "POST ",    "HEAD ",
                                             "PUT ",  "CONNECT ", "DELETE "};
  bool is_http = false;
  for (const char* m : kMethods) {
    if (sc::startsWith(text, m)) {
      is_http = true;
      break;
    }
  }
  if (!is_http) return std::nullopt;
  for (const auto& line : sc::splitString(text, '\n')) {
    const auto trimmed = sc::trimWhitespace(line);
    if (sc::iequals(trimmed.substr(0, 5), "host:"))
      return std::string(sc::trimWhitespace(trimmed.substr(5)));
  }
  const auto first_line = sc::splitString(text, '\n').front();
  const auto parts = sc::splitString(first_line, ' ');
  if (parts.size() >= 2) {
    std::string_view target = parts[1];
    const auto scheme = target.find("://");
    if (scheme != std::string_view::npos) {
      target.remove_prefix(scheme + 3);
      const auto slash = target.find('/');
      const auto colon = target.find(':');
      return std::string(target.substr(0, std::min(slash, colon)));
    }
  }
  return std::string{};
}

bool legacyIsTorLikeFingerprint(const std::string& fingerprint) {
  const std::string lower = sc::toLower(fingerprint);
  return lower.find("tor") != std::string::npos ||
         lower.find("meek") != std::string::npos;
}

class LegacyDomainBlocklist {
 public:
  void add(const std::string& suffix) { suffixes_.push_back(sc::toLower(suffix)); }
  bool isBlocked(const std::string& host) const {
    for (const auto& suffix : suffixes_) {
      if (sc::dnsDomainIs(host, suffix)) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> suffixes_;
};

FlowClass legacyClassifyTcpPayload(const sc::net::Packet& pkt,
                                   const ClassifierThresholds& thresholds) {
  const auto& payload = pkt.payload;
  if (payload.empty()) return FlowClass::kUnknown;

  if (const auto hello = legacyParseClientHello(payload)) {
    return legacyIsTorLikeFingerprint(hello->fingerprint) ? FlowClass::kTorTls
                                                          : FlowClass::kTls;
  }
  if (legacyExtractHttpHost(payload).has_value()) return FlowClass::kPlainHttp;
  if (pkt.tcp().dst_port == 1723) return FlowClass::kVpnPptp;
  if (pkt.tcp().dst_port == 1194 && payload[0] == 0x38)
    return FlowClass::kOpenVpn;

  if (payload.size() < thresholds.min_classify_bytes) return FlowClass::kUnknown;

  const double printable = sc::crypto::printableFraction(payload);
  if (printable >= thresholds.printable_benign_fraction)
    return FlowClass::kTextLike;

  const double cap =
      std::min(8.0, std::log2(static_cast<double>(payload.size())));
  const double entropy = sc::crypto::shannonEntropy(payload);
  if (entropy >= thresholds.entropy_threshold_bits * cap / 8.0)
    return FlowClass::kHighEntropy;

  return FlowClass::kUnknown;
}

// The pre-rework verdict shape: classify, then re-parse the payload to ask
// the blocklist (the classify step already parsed it once — that double work
// is part of what the rework removed and the ratio measures).
std::uint16_t legacyVerdict(const sc::net::Packet& pkt,
                            const LegacyDomainBlocklist& domains,
                            const ClassifierThresholds& thresholds) {
  const FlowClass cls = legacyClassifyTcpPayload(pkt, thresholds);
  bool rst = false;
  if (cls == FlowClass::kPlainHttp) {
    const auto host = legacyExtractHttpHost(pkt.payload);
    if (host.has_value() && !host->empty() && domains.isBlocked(*host))
      rst = true;
  } else if (cls == FlowClass::kTls || cls == FlowClass::kTorTls) {
    const auto hello = legacyParseClientHello(pkt.payload);
    if (hello.has_value() && domains.isBlocked(hello->sni)) rst = true;
  }
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(cls) << 1 |
                                    static_cast<std::uint16_t>(rst));
}

// ---------------------------------------------------------------------------
// The compiled path, mirroring Gfw::classifyFlow's TCP branch: one scan,
// field-scoped prefilter flags, exact-index confirm only on candidates.

struct CompiledInspector {
  sc::gfw::DomainBlocklist domains;
  sc::gfw::dpi::Engine engine;
  sc::gfw::dpi::PayloadScanner scanner;
  sc::gfw::dpi::ScanResult scan;
  std::uint64_t dpi_version = ~std::uint64_t{0};
  std::uint64_t recompiles = 0;
  double recompile_seconds = 0;

  void refresh() {
    if (engine.compiled() && dpi_version == domains.version()) return;
    const sc::bench::Stopwatch clock;
    engine.compile(domains.patterns());
    recompile_seconds += clock.seconds();
    ++recompiles;
    dpi_version = domains.version();
  }

  std::uint16_t verdict(const sc::net::Packet& pkt,
                        const ClassifierThresholds& thresholds) {
    refresh();
    scanner.scan(pkt.payload, &engine.automaton(), scan);
    const auto flags = engine.analyze(scan, pkt.payload);
    const FlowClass cls = sc::gfw::classifyScan(scan, flags, pkt, thresholds);
    bool rst = false;
    if (cls == FlowClass::kPlainHttp) {
      if (flags.host_candidate && domains.isBlocked(scan.http_host)) rst = true;
    } else if (cls == FlowClass::kTls || cls == FlowClass::kTorTls) {
      if (flags.sni_candidate && domains.isBlocked(scan.sni)) rst = true;
    }
    return static_cast<std::uint16_t>(static_cast<std::uint16_t>(cls) << 1 |
                                      static_cast<std::uint16_t>(rst));
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

  LegacyDomainBlocklist legacy_domains;
  CompiledInspector compiled;
  for (const auto& d : domains) {
    legacy_domains.add(d);
    compiled.domains.add(d);
  }
  compiled.refresh();
  const std::uint64_t compile_warmup = compiled.recompiles;
  const double full_compile_s = compiled.recompile_seconds;

  // --- 1+2: timed inspector runs, verdict hashes accumulated in-loop ------
  std::uint64_t legacy_hash = kFnvOffset;
  long long legacy_done = 0;
  const bench::Stopwatch legacy_clock;
  while (legacy_done < n_packets) {
    for (const auto& pkt : corpus) {
      legacy_hash = fnv1a(legacy_hash, legacyVerdict(pkt, legacy_domains, thresholds));
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
      new_hash = fnv1a(new_hash, compiled.verdict(pkt, thresholds));
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
  const std::uint64_t pre_churn_recompiles = compiled.recompiles;
  const double pre_churn_recompile_s = compiled.recompile_seconds;
  long long churn_done = 0;
  std::uint64_t churn_hash = kFnvOffset;
  const long long batch =
      std::max<long long>(1, n_packets / std::max(1, n_waves));
  const bench::Stopwatch churn_clock;
  for (int w = 0; w < n_waves; ++w) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w);
    compiled.domains.add(buf);
    if (w % 2 == 1) {
      std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w - 1);
      compiled.domains.remove(buf);
    }
    long long in_wave = 0;
    while (in_wave < batch) {
      for (const auto& pkt : corpus) {
        churn_hash = fnv1a(churn_hash, compiled.verdict(pkt, thresholds));
        ++in_wave;
        ++churn_done;
        if (in_wave >= batch) break;
      }
    }
  }
  const double churn_s = churn_clock.seconds();
  const double churn_pps = static_cast<double>(churn_done) / churn_s;
  const std::uint64_t churn_recompiles = compiled.recompiles - pre_churn_recompiles;
  const double churn_recompile_s =
      compiled.recompile_seconds - pre_churn_recompile_s;
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
      .field("automaton_patterns", compiled.engine.automaton().patternCount())
      .field("automaton_states", compiled.engine.automaton().stateCount())
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
