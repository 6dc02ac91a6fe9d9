// Deep packet inspection: turns the first data-bearing packets of a flow
// into a protocol verdict. Everything here reads only bytes a real wire tap
// would see.
//
// Inspector is the one payload classifier: one PayloadScanner pass (gfw/dpi)
// feeds the class decision, the Tor fingerprint flag, the entropy and
// printable statistics and the SNI/Host blocklist prefilters. The GFW runs
// it on every classified TCP packet; tests and bench_gfw_throughput check it
// against the independent multi-walk replica in tests/dpi_oracle.h.
#pragma once

#include <cstdint>

#include "gfw/blocklist.h"
#include "gfw/dpi/engine.h"
#include "gfw/dpi/scanner.h"
#include "net/packet.h"

namespace sc::gfw {

enum class FlowClass : std::uint8_t {
  kUnknown,
  kPlainHttp,
  kTls,            // ordinary TLS (browser fingerprint)
  kTorTls,         // TLS whose fingerprint matches the Tor stack / meek
  kVpnPptp,
  kVpnL2tp,
  kOpenVpn,
  kHighEntropy,    // random-looking bytes with no recognized framing
  kTextLike,       // printable, unrecognized (blinded-printable lands here)
};

const char* flowClassName(FlowClass cls);

struct ClassifierThresholds {
  double entropy_threshold_bits = 7.0;
  double printable_benign_fraction = 0.9;
  std::size_t min_classify_bytes = 48;
};

// The compiled TCP payload classifier over a domain blocklist it does not
// own. The scan state is reused across packets: scan() and nameBlocked()
// describe the packet last passed to classify() and alias its payload, so
// they are valid only while that packet lives.
class Inspector {
 public:
  explicit Inspector(const DomainBlocklist& domains) : domains_(domains) {}

  // Recompiles the DPI automaton iff the blocklist's version moved since
  // the last compile (lazy: a churn burst costs one compile, on the next
  // classified packet). Returns true when it recompiled.
  bool refresh();

  // Classifies the first client->server payload of a TCP flow. The GFW
  // recognizes Tor's cipher-suite list (Winter & Lindskog) and meek's
  // quirks; a "tor"/"meek" substring in the fingerprint models that.
  FlowClass classify(const net::Packet& pkt,
                     const ClassifierThresholds& thresholds);

  // Whether the Host (plain HTTP) or SNI (TLS) of the packet just classified
  // is on the blocklist: the automaton prefilter first (no hit inside the
  // field means the exact suffix check cannot succeed), then the exact
  // isBlocked confirmation. False for every other class.
  bool nameBlocked() const;

  const dpi::ScanResult& scan() const noexcept { return scan_; }
  const dpi::Engine::Flags& flags() const noexcept { return flags_; }
  const dpi::Engine& engine() const noexcept { return engine_; }

 private:
  const DomainBlocklist& domains_;
  dpi::Engine engine_;
  dpi::PayloadScanner scanner_;
  dpi::ScanResult scan_;
  dpi::Engine::Flags flags_;
  FlowClass cls_ = FlowClass::kUnknown;
  std::uint64_t version_ = 0;
};

// Classifies a non-TCP packet (GRE/ESP/UDP protocol fingerprints).
FlowClass classifyNonTcp(const net::Packet& pkt);

}  // namespace sc::gfw
