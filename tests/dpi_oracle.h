// The DPI oracle: an independent, deliberately naive replica of the GFW's
// payload inspectors as they stood before the compiled pipeline
// (gfw::Inspector). test_dpi checks the Inspector against it verdict for
// verdict, and bench_gfw_throughput times it as the fixed baseline its
// packets/sec speedup is measured against.
//
// Every quirk is intentional: the ClientHello parse copies both fields into
// strings, the Host extraction copies the payload into a std::string and
// splits it into a line vector, entropy and printable fraction each re-walk
// the payload, and the domain blocklist is a linear dnsDomainIs scan. It
// shares no parsing code with src/gfw: only the byte readers, string
// helpers and entropy walks it is built from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/entropy.h"
#include "gfw/classifier.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace sc::dpi_oracle {

using gfw::ClassifierThresholds;
using gfw::FlowClass;

struct LegacyTlsHelloInfo {
  std::string sni;
  std::string fingerprint;
};

inline std::optional<LegacyTlsHelloInfo> legacyParseClientHello(
    ByteView payload) {
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

inline std::optional<std::string> legacyExtractHttpHost(ByteView payload) {
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

inline bool legacyIsTorLikeFingerprint(const std::string& fingerprint) {
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

inline FlowClass legacyClassifyTcpPayload(
    const sc::net::Packet& pkt, const ClassifierThresholds& thresholds) {
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
// is part of what the rework removed and the bench ratio measures). The
// verdict packs (class << 1 | rst).
inline std::uint16_t legacyVerdict(const sc::net::Packet& pkt,
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

// The Inspector's verdict for `pkt`, packed the same way.
inline std::uint16_t inspectorVerdict(gfw::Inspector& inspector,
                                      const sc::net::Packet& pkt,
                                      const ClassifierThresholds& thresholds) {
  const FlowClass cls = inspector.classify(pkt, thresholds);
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(cls) << 1 |
      static_cast<std::uint16_t>(inspector.nameBlocked()));
}

}  // namespace sc::dpi_oracle
