#include "analysis/critical_path.hpp"

#include <algorithm>
#include <cmath>

#include "util/format.hpp"
#include "util/table.hpp"

namespace pandarus::analysis {
namespace {

std::int64_t nearest_rank(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(idx, sorted.size() - 1)];
}

PhaseQuantiles quantiles_of(std::string phase,
                            std::vector<std::int64_t> values) {
  PhaseQuantiles out;
  out.phase = std::move(phase);
  for (const std::int64_t v : values) out.total_ms += v;
  std::sort(values.begin(), values.end());
  out.p50 = nearest_rank(values, 0.50);
  out.p95 = nearest_rank(values, 0.95);
  out.p99 = nearest_rank(values, 0.99);
  out.max = values.empty() ? 0 : values.back();
  return out;
}

}  // namespace

std::string FlowAnalysis::site_label(std::int64_t site) const {
  const auto it = site_names.find(site);
  if (it != site_names.end() && !it->second.empty()) return it->second;
  return "site_" + std::to_string(site);
}

std::vector<PhaseQuantiles> flow_phase_quantiles(
    const std::vector<obs::FlowSummary>& flows) {
  std::vector<std::int64_t> broker, stage_in, serialized, queue, run,
      stage_out, wall;
  broker.reserve(flows.size());
  for (const obs::FlowSummary& f : flows) {
    broker.push_back(f.phases.broker_ms);
    stage_in.push_back(f.phases.stage_in_ms);
    serialized.push_back(f.phases.stage_in_serialized_ms);
    queue.push_back(f.phases.queue_ms);
    run.push_back(f.phases.run_ms);
    stage_out.push_back(f.phases.stage_out_ms);
    wall.push_back(f.phases.wall_ms);
  }
  std::vector<PhaseQuantiles> out;
  out.push_back(quantiles_of("broker", std::move(broker)));
  out.push_back(quantiles_of("stage_in", std::move(stage_in)));
  out.push_back(quantiles_of("stage_in_serialized", std::move(serialized)));
  out.push_back(quantiles_of("queue", std::move(queue)));
  out.push_back(quantiles_of("run", std::move(run)));
  out.push_back(quantiles_of("stage_out", std::move(stage_out)));
  out.push_back(quantiles_of("wall", std::move(wall)));
  return out;
}

FlowAnalysis analyze_flows(const obs::FlowTracker& tracker,
                           std::map<std::int64_t, std::string> site_names) {
  FlowAnalysis out;
  out.flows = tracker.completed();
  out.totals = tracker.totals();
  out.link_ranking = tracker.link_ranking();
  out.quantiles = flow_phase_quantiles(out.flows);
  out.site_names = std::move(site_names);
  out.collapsed = tracker.to_collapsed(
      [&out](std::int64_t site) { return out.site_label(site); });
  return out;
}

std::map<std::int64_t, std::string> wide_site_names(
    const ReplayResult& replay) {
  std::map<std::int64_t, std::string> names;
  for (const auto& [id, name] : replay.site_names) {
    names.emplace(static_cast<std::int64_t>(id), name);
  }
  return names;
}

FlowAnalysis rebuild_flows(const ReplayResult& replay) {
  return analyze_flows(*replay.flows, wide_site_names(replay));
}

std::string render_attribution(const FlowAnalysis& analysis,
                               std::size_t top_links) {
  std::string out;
  out += "critical-path wait attribution (" +
         util::format_count(static_cast<std::uint64_t>(analysis.flows.size())) +
         " flows)\n\n";

  util::Table phases({"phase", "p50 ms", "p95 ms", "p99 ms", "max ms",
                      "total ms"});
  for (std::size_t c = 1; c <= 5; ++c) phases.set_align(c, util::Align::kRight);
  for (const PhaseQuantiles& q : analysis.quantiles) {
    phases.add_row({q.phase, util::format_count(q.p50),
                    util::format_count(q.p95), util::format_count(q.p99),
                    util::format_count(q.max), util::format_count(q.total_ms)});
  }
  out += phases.to_string() + "\n";

  const obs::FlowTotals& t = analysis.totals;
  out += "flows " + util::format_count(t.flows) + ", failed " +
         util::format_count(t.failed) + ", sequential staging " +
         util::format_count(t.sequential_staging) + ", redundant transfers " +
         util::format_count(t.redundant_transfers) + ", watchdog releases " +
         util::format_count(t.watchdog_releases) + ", reroutes " +
         util::format_count(t.reroutes) + "\n\n";

  if (!analysis.link_ranking.empty()) {
    out += "top links by critical stage-in time\n";
    util::Table links({"rank", "link", "critical ms", "flows"});
    links.set_align(0, util::Align::kRight);
    links.set_align(2, util::Align::kRight);
    links.set_align(3, util::Align::kRight);
    const std::size_t n = std::min(top_links, analysis.link_ranking.size());
    for (std::size_t i = 0; i < n; ++i) {
      const obs::LinkCritical& lc = analysis.link_ranking[i];
      links.add_row({std::to_string(i + 1),
                     analysis.site_label(lc.src) + " -> " +
                         analysis.site_label(lc.dst),
                     util::format_count(lc.critical_ms),
                     util::format_count(lc.flows)});
    }
    out += links.to_string() + "\n";
  }

  std::vector<const obs::FlowSummary*> sequential;
  for (const obs::FlowSummary& f : analysis.flows) {
    if (f.phases.sequential_staging) sequential.push_back(&f);
  }
  if (!sequential.empty()) {
    std::sort(sequential.begin(), sequential.end(),
              [](const obs::FlowSummary* a, const obs::FlowSummary* b) {
                if (a->phases.stage_in_ms != b->phases.stage_in_ms) {
                  return a->phases.stage_in_ms > b->phases.stage_in_ms;
                }
                return a->pandaid < b->pandaid;
              });
    out += "sequential-staging case studies (overlap ~ 0)\n";
    util::Table cases({"pandaid", "site", "transfers", "stage_in ms",
                       "overlap", "bottleneck link", "critical ms"});
    cases.set_align(2, util::Align::kRight);
    cases.set_align(3, util::Align::kRight);
    cases.set_align(4, util::Align::kRight);
    cases.set_align(6, util::Align::kRight);
    const std::size_t n = std::min<std::size_t>(5, sequential.size());
    for (std::size_t i = 0; i < n; ++i) {
      const obs::FlowSummary& f = *sequential[i];
      cases.add_row({std::to_string(f.pandaid), analysis.site_label(f.site),
                     std::to_string(f.phases.stage_in_transfers),
                     util::format_count(f.phases.stage_in_ms),
                     util::format_fixed(f.phases.stage_in_overlap, 3),
                     analysis.site_label(f.critical_src()) + " -> " +
                         analysis.site_label(f.critical_dst()),
                     util::format_count(f.critical_ms())});
    }
    out += cases.to_string() + "\n";
  }
  return out;
}

}  // namespace pandarus::analysis
