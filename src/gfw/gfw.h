// The Great Firewall: a stateful middlebox attached to the border link.
//
// Pipeline per packet (mirrors the technique list in §1/§5 of the paper):
//   1. IP blocking            — blocked destination/source: silent drop
//   2. DNS poisoning          — forged A records race the genuine answer
//   3. Flow classification    — DPI over the first payload (HTTP keyword
//                               filter, TLS SNI + fingerprint, VPN protocol
//                               recognition, entropy analysis)
//   4. Active probing         — suspicious servers get probed; confirmed
//                               ones land on a temporary suspect list
//   5. Discipline             — per-class packet-drop rates (RST injection
//                               for hard keyword/SNI hits)
//
// Two policy hooks make the paper's legal-avenue argument testable:
//   - registered-VPN era toggle (block_vpn_protocols),
//   - registered-ICP leniency: flows whose China-side endpoint belongs to a
//     registered ICP are exempt from unknown-protocol throttling — the
//     mechanism by which the legalized ScholarCloud coexists with the GFW.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "gfw/blocklist.h"
#include "gfw/classifier.h"
#include "gfw/config.h"
#include "gfw/prober.h"
#include "net/network.h"

namespace sc::gfw {

class Gfw final : public net::PacketFilter {
 public:
  Gfw(net::Network& network, GfwConfig config);

  // Installs this GFW on `link`; `outbound` is the direction China -> abroad.
  void attachTo(net::Link& link, net::Direction outbound);

  // ---- blocklist management ----
  DomainBlocklist& domains() noexcept { return domains_; }
  IpBlocklist& ips() noexcept { return ips_; }
  void addKnownTorRelay(net::Ipv4 ip);

  // ---- policy wiring ----
  using IcpLookup = std::function<bool(net::Ipv4)>;
  void setIcpLookup(IcpLookup lookup) { icp_lookup_ = std::move(lookup); }
  void enableActiveProbing(transport::HostStack& probe_stack);

  GfwConfig& config() noexcept { return config_; }
  // Read-only tap for analytic models (population flow path): the live
  // policy, without granting mutation rights. Mutations must go through
  // mutatePolicy so re-disciplining + version bumps stay coherent.
  const GfwConfig& config() const noexcept { return config_; }

  // ---- policy-mutation seam (chaos escalation waves) ----
  // Applies `fn` to the live config, re-disciplines every already-classified
  // flow under the new policy (an escalation wave hits established VPN
  // tunnels mid-session, not just new connections — the semester-scale churn
  // the paper describes), bumps the policy version and fires the on-change
  // hook. The blocklists have their own churn channel
  // (IpBlocklist::version()/setOnChange()); this one covers everything else.
  void mutatePolicy(const std::function<void(GfwConfig&)>& fn);
  std::uint64_t policyVersion() const noexcept { return policy_version_; }
  void setOnPolicyChange(std::function<void()> cb) {
    on_policy_change_ = std::move(cb);
  }

  // ---- PacketFilter ----
  Verdict onPacket(net::Packet& pkt, net::Direction dir,
                   net::Link& link) override;

  // ---- observability ----
  struct Stats {
    std::uint64_t packets_inspected = 0;
    std::uint64_t ip_blocked = 0;
    std::uint64_t dns_poisoned = 0;
    std::uint64_t rst_injected = 0;
    std::uint64_t disciplined_drops = 0;
    std::uint64_t leniency_granted = 0;  // flows, not packets
    std::uint64_t flows_classified = 0;
    std::uint64_t probes_launched = 0;
    std::uint64_t suspects_confirmed = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  std::map<FlowClass, std::uint64_t> flowClassCounts() const;
  bool isSuspectServer(net::Ipv4 ip) const;
  std::size_t flowTableSize() const noexcept { return flows_.size(); }

 private:
  struct Flow {
    FlowClass cls = FlowClass::kUnknown;
    bool classified = false;
    bool killed = false;       // RST already sent; eat the rest
    bool lenient = false;      // registered-ICP exemption granted
    bool probe_launched = false;
    double drop_prob = 0.0;
    sim::Time last_seen = 0;
    std::uint64_t packets = 0;
    std::uint64_t span = 0;  // obs::SpanId: first packet -> classified/killed
  };

  void classifyFlow(Flow& flow, const net::Packet& pkt, net::Link& link,
                    net::Direction dir);
  // Emits a kGfwVerdict trace event (inspector that fired + action taken)
  // when tracing is enabled; no-op (one branch) otherwise.
  void traceVerdict(const net::Packet& pkt, const char* inspector,
                    const char* action);
  void resolveInstruments();
  void applyDiscipline(Flow& flow);
  bool endpointIsRegisteredIcp(const net::Packet& pkt, bool outbound) const;
  void injectRst(const net::Packet& offending, net::Link& link,
                 net::Direction dir);
  void maybePoisonDns(const net::Packet& pkt, net::Link& link,
                      net::Direction dir);
  void scheduleProbe(net::Endpoint server);
  void gcFlows();

  net::Network& network_;
  GfwConfig config_;
  std::uint64_t policy_version_ = 0;
  std::function<void()> on_policy_change_;
  net::Direction outbound_ = net::Direction::kAtoB;
  DomainBlocklist domains_;
  IpBlocklist ips_;
  // Compiled DPI over domains_ (declared after it): one scan pass per
  // classified TCP packet.
  Inspector inspector_{domains_};
  IcpLookup icp_lookup_;
  std::unique_ptr<ActiveProber> prober_;
  std::unordered_map<net::FiveTuple, Flow> flows_;
  std::unordered_set<net::Ipv4> probed_servers_;  // don't re-probe endlessly
  std::unordered_map<net::Ipv4, sim::Time> suspect_servers_;
  Stats stats_;
  std::map<FlowClass, std::uint64_t> class_counts_;

  // Pre-resolved metric handles mirroring Stats (null without a hub).
  obs::Counter* c_inspected_ = nullptr;
  obs::Counter* c_ip_blocked_ = nullptr;
  obs::Counter* c_dns_poisoned_ = nullptr;
  obs::Counter* c_rst_injected_ = nullptr;
  obs::Counter* c_disciplined_ = nullptr;
  obs::Counter* c_leniency_ = nullptr;
  obs::Counter* c_classified_ = nullptr;
  obs::Counter* c_probes_ = nullptr;
  obs::Counter* c_confirmed_ = nullptr;
};

// The address poisoned answers point at (an unroutable sinkhole, as the real
// GFW's forged answers effectively are).
inline constexpr net::Ipv4 kPoisonAddress{198, 51, 100, 66};

}  // namespace sc::gfw
