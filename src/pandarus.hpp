// Pandarus — umbrella header.
//
// A simulation and analysis library reproducing "Data Management System
// Analysis for Distributed Computing Workloads" (SC Workshops '25): a
// WLCG-like grid, a Rucio-like data management substrate, a PanDA-like
// workload manager, telemetry with realistic metadata corruption, the
// paper's exact/RM1/RM2 job-transfer matching algorithms, and the
// analyses behind every table and figure of its evaluation.
//
// Typical use:
//
//   auto result  = pandarus::scenario::run_campaign(
//                      pandarus::scenario::ScenarioConfig::paper_scale());
//   pandarus::core::Matcher matcher(result.store);
//   auto tri     = pandarus::core::run_all_methods(matcher);
//   auto summary = pandarus::analysis::overall_summary(result.store,
//                                                      tri.exact);
#pragma once

#include "analysis/bandwidth.hpp"
#include "analysis/breakdown.hpp"
#include "analysis/casestudy.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "analysis/health_replay.hpp"
#include "analysis/heatmap.hpp"
#include "analysis/imbalance.hpp"
#include "analysis/metric_query.hpp"
#include "analysis/report.hpp"
#include "analysis/report_html.hpp"
#include "analysis/serve_endpoints.hpp"
#include "analysis/summary.hpp"
#include "analysis/threshold.hpp"
#include "analysis/volume_growth.hpp"
#include "core/anomaly.hpp"
#include "core/exact.hpp"
#include "core/inference.hpp"
#include "core/match_index.hpp"
#include "core/match_types.hpp"
#include "core/metrics.hpp"
#include "core/relaxed.hpp"
#include "core/windowed.hpp"
#include "dms/catalog.hpp"
#include "dms/did.hpp"
#include "dms/rse.hpp"
#include "dms/rule.hpp"
#include "dms/selector.hpp"
#include "dms/transfer.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "grid/builder.hpp"
#include "grid/link.hpp"
#include "grid/load_model.hpp"
#include "grid/site.hpp"
#include "grid/topology.hpp"
#include "obs/colstore.hpp"
#include "obs/decoded_event.hpp"
#include "obs/env.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/sampler.hpp"
#include "obs/serve.hpp"
#include "obs/trace.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/corruption.hpp"
#include "telemetry/io.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/records.hpp"
#include "telemetry/store.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/interner.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "wms/brokerage.hpp"
#include "wms/job.hpp"
#include "wms/panda_server.hpp"
#include "wms/workload.hpp"
