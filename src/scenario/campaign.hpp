// End-to-end campaign driver: builds the grid, seeds the catalog, runs
// the coupled WMS/DMS simulation for the configured window, applies
// metadata corruption, and returns the telemetry snapshot ready for
// matching and analysis.  This is the single entry point used by the
// examples and every bench binary.
#pragma once

#include <vector>

#include "dms/catalog.hpp"
#include "dms/deletion.hpp"
#include "dms/rse.hpp"
#include "grid/topology.hpp"
#include "obs/flow.hpp"
#include "scenario/config.hpp"
#include "telemetry/corruption.hpp"
#include "telemetry/store.hpp"

namespace pandarus::scenario {

struct ScenarioResult {
  grid::Topology topology;
  dms::RseRegistry rses;
  dms::FileCatalog catalog;
  telemetry::MetadataStore store;  ///< after corruption injection
  telemetry::CorruptionReport corruption{};

  util::SimTime window_begin = 0;
  util::SimTime window_end = 0;

  // Run statistics from the live components.
  wms::PandaServer::Stats panda{};
  dms::DeletionDaemon::Stats deletion{};
  dms::TransferEngine::Stats transfers{};
  dms::RuleEngine::Stats rules{};
  wms::WorkloadGenerator::Stats workload{};
  std::uint64_t events_processed = 0;

  /// Drain health: whether no live event remained after the grace
  /// period (cancelled entries still queued past the horizon do not
  /// count), and what the transfer engine still held if one did.
  bool drained = true;
  std::size_t transfers_in_flight = 0;
  /// Fault windows that began during the run (0 on fault-free runs).
  std::uint64_t fault_windows = 0;

  /// Causal-flow aggregates, harvested when a FlowTracker was installed
  /// for the run (all-zero / empty otherwise).  Purely in-memory: flow
  /// tracking never alters the campaign's non-flow_* event stream.
  obs::FlowTotals flow_totals{};
  std::vector<obs::LinkCritical> flow_link_ranking;
};

/// Runs one deterministic campaign.  Equal configs (including seed)
/// produce bit-identical results.
[[nodiscard]] ScenarioResult run_campaign(const ScenarioConfig& config);

}  // namespace pandarus::scenario
