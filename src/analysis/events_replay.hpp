// Offline event replay: rebuilds an analyzable MetadataStore — plus the
// sampled time series — from a PANDARUS_EVENTS NDJSON stream, without
// touching any live simulator state.
//
// The campaign closes its event stream with a harvest (campaign_meta,
// site_record, then one job_record / file_record / transfer_record per
// store row, in store order).  Replaying those records through a fresh
// MetadataStore re-interns every string attribute, and because per-family
// order is preserved the rebuilt store is index-compatible with the
// in-memory one: matching and every downstream analysis produce
// identical numbers.  The replay cross-check test asserts exactly that.
//
// Live lifecycle events (job_state, transfer_submit, sample, ...) are
// tallied by kind and — for sample / link_sample — decoded into columnar
// series for the report generator.  The same pass feeds every event to
// a detached obs::FlowTracker (FlowTracker::observe), which rebuilds
// the campaign's causal flows; analysis::rebuild_flows harvests it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/site.hpp"
#include "obs/flow.hpp"
#include "telemetry/store.hpp"
#include "util/time.hpp"

namespace pandarus::analysis {

class EventSource;

struct ReplayResult {
  /// Rebuilt from the harvest events; empty if the stream held none.
  telemetry::MetadataStore store;

  /// From site_record events: id -> display name / tier.
  std::map<grid::SiteId, std::string> site_names;
  std::map<grid::SiteId, std::int32_t> site_tiers;

  /// From the campaign_meta event (zeros when absent).
  std::uint64_t seed = 0;
  double days = 0.0;
  util::SimTime window_begin = 0;
  util::SimTime window_end = 0;
  std::int64_t sample_interval_ms = 0;

  /// Columnar "sample" series: one row per tick, columns in emission
  /// order (taken from the first sample event seen).
  std::vector<std::string> sample_columns;
  struct Sample {
    std::int64_t ts = 0;
    std::vector<std::int64_t> values;
  };
  std::vector<Sample> samples;

  /// Per-link load samples, in stream order.
  struct LinkSample {
    std::int64_t ts = 0;
    grid::SiteId src = grid::kUnknownSite;
    grid::SiteId dst = grid::kUnknownSite;
    std::int64_t active = 0;
    std::int64_t queued = 0;
    std::int64_t bytes_in_flight = 0;
    double rate_bps = 0.0;
    double utilization = 0.0;
  };
  std::vector<LinkSample> link_samples;

  /// Fault-window transitions (kind == "fault_window"), in stream order.
  struct FaultWindowEvent {
    std::int64_t ts = 0;
    std::string fault_kind;  ///< site_outage, link_blackout, ...
    bool begin = true;
    grid::SiteId site = grid::kUnknownSite;
    grid::SiteId src = grid::kUnknownSite;
    grid::SiteId dst = grid::kUnknownSite;
    std::int64_t window_begin = 0;
    std::int64_t window_end = 0;
  };
  std::vector<FaultWindowEvent> fault_windows;

  /// Terminal-failure attribution from transfer_record events, indexed
  /// by dms::TransferError value (aborted, stalled_terminal, ...).
  std::map<std::int32_t, std::size_t> failure_causes;

  /// Detached tracker fed every flow_* / transfer_* event in stream
  /// order: it holds exactly the state the live tracker held, so
  /// analysis::rebuild_flows reproduces the online critical-path
  /// analysis verbatim.  Completed flows only exist when the stream
  /// was recorded with flows armed.  Never installed, so it emits
  /// nothing.
  std::unique_ptr<obs::FlowTracker> flows =
      std::make_unique<obs::FlowTracker>();

  /// The terminal log_stats event the EventLog appends on close():
  /// what the producing process actually wrote and dropped.  A nonzero
  /// `dropped` means the stream is truncated by max_events and every
  /// downstream count is a floor, not a total.
  struct LogStats {
    bool present = false;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bytes = 0;
  };
  LogStats log_stats;

  /// Every event kind seen, with its line count (sorted by kind).
  std::map<std::string, std::size_t> kind_counts;
  std::size_t lines_parsed = 0;
  std::size_t lines_skipped = 0;  ///< unparsable or missing kind/ts

  [[nodiscard]] std::string site_name(grid::SiteId id) const;
};

/// Replays any event source (NDJSON or colstore) with bounded memory;
/// malformed events are counted and skipped, never fatal (a truncated
/// tail must not lose the whole stream).
ReplayResult replay_events(EventSource& source);

/// Line-streaming NDJSON convenience wrapper over the same replay.
ReplayResult replay_events(std::istream& in);

/// Opens `path` via open_event_source (format sniffed: colstore magic
/// or NDJSON text) and replays it; returns a result with lines_parsed
/// == 0 and a warning log when the file cannot be opened.
ReplayResult replay_events_file(const std::string& path);

}  // namespace pandarus::analysis
