#include "measure/population_scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "measure/calibration.h"
#include "measure/campaign.h"
#include "measure/cell_world.h"
#include "measure/testbed.h"

namespace sc::measure {

PopulationCellResult runPopulationCell(const PopulationCellOptions& opt) {
  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  fopts.tunnels_per_endpoint = opt.tunnels_per_endpoint;
  fopts.enable_cache = opt.cache;
  fopts.autoscale = opt.autoscale;
  FleetWorld w(opt.seed, opt.tracing ? obs::Tracer::kDefaultCap : 0, nullptr,
               fopts, "pop-remote-");
  sim::Simulator& sim = w.sim;
  fleet::Fleet& fl = w.fleet;

  // ---- flow-level background population --------------------------------
  population::PopulationOptions popts;
  popts.scholars = opt.scholars;
  popts.seed = opt.seed;
  popts.sc_adoption = opt.sc_adoption;
  population::SchedulerOptions sopts = opt.scheduler;
  sopts.streams_per_endpoint = opt.tunnels_per_endpoint;
  population::FlowModel flow(calibratedWorld(), &w.gfw);
  std::unique_ptr<population::HybridScheduler> background;
  if (opt.background) {
    background = std::make_unique<population::HybridScheduler>(
        sim, population::PopulationModel(popts), flow, &fl, sopts);
    background->start(opt.duration);
  }

  // ---- packet-level cohort ---------------------------------------------
  PopulationCellResult out;
  double plt_sum = 0;
  const net::Endpoint proxy_ep = w.proxy.proxyEndpoint();
  std::vector<std::unique_ptr<ThinkingUser>> users;
  // `u` stays valid: users holds unique_ptrs.
  std::function<void(ThinkingUser*)> fetch = [&](ThinkingUser* u) {
    ++out.cohort_attempts;
    const sim::Time started = sim.now();
    fetchThroughProxy(
        u->stack, sim, proxy_ep, kThinkingFetchTimeout,
        [&, u, started](bool ok) {
          if (ok) {
            ++out.cohort_successes;
            const double plt =
                static_cast<double>(sim.now() - started) / sim::kSecond;
            plt_sum += plt;
            out.cohort_plt_max_s = std::max(out.cohort_plt_max_s, plt);
          }
          const auto think =
              static_cast<sim::Time>(u->rng.exponential(
                  static_cast<double>(opt.cohort_think_mean))) +
              sim::kMillisecond;
          sim.schedule(think, [&fetch, u] { fetch(u); });
        });
  };
  for (int i = 0; i < opt.cohort_users; ++i) {
    auto& node = w.world.addCampusHost("cohort-user-" + std::to_string(i));
    users.push_back(std::make_unique<ThinkingUser>(
        node, sim.rng().fork(2000 + static_cast<std::uint64_t>(i))));
    ThinkingUser* u = users.back().get();
    const auto start = static_cast<sim::Time>(
        u->rng.exponential(static_cast<double>(sim::kSecond)));
    sim.schedule(start, [&fetch, u] { fetch(u); });
  }

  // Load sampler: tracks the peak concurrent stream count the shared pool
  // carried (background leases + cohort streams).
  std::function<void()> sample_load = [&] {
    out.peak_active_streams = std::max(
        out.peak_active_streams, static_cast<double>(fl.activeStreams()));
    sim.schedule(sim::kSecond, [&sample_load] { sample_load(); });
  };
  sim.schedule(sim::kSecond / 2, [&sample_load] { sample_load(); });

  sim.runUntil(opt.duration);

  if (background != nullptr) {
    out.background_stats = background->stats();
    out.background_digest = out.background_stats.digest();
  }
  out.cohort_plt_mean_s =
      out.cohort_successes == 0 ? 0.0 : plt_sum / out.cohort_successes;
  if (fl.cache() != nullptr) {
    out.cache_hits = fl.cache()->hits();
    out.cache_misses = fl.cache()->misses();
  }
  out.final_fleet_size = fl.size();
  out.metrics_jsonl = w.metricsJsonl();
  if (opt.tracing) out.trace_jsonl = w.traceJsonl();
  return out;
}

namespace {

double relErr(double got, double want) {
  return want == 0.0 ? (got == 0.0 ? 0.0 : 1.0)
                     : std::abs(got - want) / std::abs(want);
}

}  // namespace

ValidationCellResult runValidationCell(const ValidationCellOptions& opt) {
  ValidationCellResult out;
  out.method = opt.method;

  TestbedOptions topts;
  topts.seed = opt.seed;
  Testbed tb(topts);

  CampaignOptions copts;
  copts.accesses = opt.accesses;
  // population::Method and measure::Method share ordinals 0..5 by
  // construction (both mirror the paper's method list); serverless diverges
  // (measure interposes kUsControl at 6) and must be mapped by name.
  const auto packet_method =
      opt.method == population::Method::kServerless
          ? Method::kServerless
          : static_cast<Method>(opt.method);
  const auto tag = 600 + static_cast<std::uint32_t>(opt.method);
  const CampaignResult campaign =
      runAccessCampaign(tb, packet_method, tag, copts);

  out.packet_plt_first_s = campaign.plt_first_s.mean;
  out.packet_plt_sub_s = campaign.plt_sub_s.mean;
  out.packet_rtt_ms = campaign.rtt_ms.mean;
  out.packet_plr_pct = campaign.plr_pct;

  // Same world parameters, live tap on the same Gfw instance the campaign
  // just crossed.
  population::FlowModel flow(tb.options().world, &tb.gfw());
  const auto first = flow.expected(opt.method, /*first_visit=*/true);
  const auto sub = flow.expected(opt.method, /*first_visit=*/false);
  out.flow_plt_first_s = first.plt_s;
  out.flow_plt_sub_s = sub.plt_s;
  out.flow_rtt_ms = sub.rtt_ms;
  out.flow_plr_pct = sub.plr_pct;

  out.plt_first_rel_err = relErr(out.flow_plt_first_s, out.packet_plt_first_s);
  out.plt_sub_rel_err = relErr(out.flow_plt_sub_s, out.packet_plt_sub_s);
  out.rtt_rel_err = relErr(out.flow_rtt_ms, out.packet_rtt_ms);
  out.plr_abs_err_pp = std::abs(out.flow_plr_pct - out.packet_plr_pct);

  const bool plr_ok =
      out.plr_abs_err_pp <= opt.plr_abs_tol_pp ||
      relErr(out.flow_plr_pct, out.packet_plr_pct) <= opt.plr_rel_tol;
  out.pass = campaign.setup_ok && campaign.successes > 0 &&
             out.plt_first_rel_err <= opt.plt_first_rel_tol &&
             out.plt_sub_rel_err <= opt.plt_rel_tol &&
             out.rtt_rel_err <= opt.rtt_rel_tol && plr_ok;
  return out;
}

}  // namespace sc::measure
