// FlowTracker tests on hand-built timelines: the critical-path
// decomposition (phases partition wall-clock exactly), the stage-in
// union/overlap math (pure-sequential flagged, parallel staging not),
// retry/reroute chains, watchdog clipping of in-flight attempts,
// redundant-transfer detection, link attribution and its deterministic
// tie-breaks, collapsed-stack rendering, flow_* event emission, the
// recorded-event mapping (FlowTracker::observe), and a campaign-level
// invariant + determinism check.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/critical_path.hpp"
#include "json_validator.hpp"
#include "obs/decoded_event.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "scenario/campaign.hpp"

namespace {

using namespace pandarus;
using JsonValidator = pandarus::testing::JsonValidator;

// Drives one flow through its whole lifecycle with explicit timestamps;
// every test below is a variation on this skeleton.
struct FlowBuilder {
  explicit FlowBuilder(obs::FlowTracker& t) : tracker(t) {}

  FlowBuilder& begin(std::int64_t pandaid, std::int64_t ts) {
    id = pandaid;
    tracker.begin_flow(pandaid, /*taskid=*/100, /*attempt=*/1, ts);
    return *this;
  }
  FlowBuilder& broker(std::int64_t site, std::int64_t ts) {
    tracker.broker_scored(id, 5);
    tracker.broker_decision(id, site, ts);
    return *this;
  }
  /// One submit+link+start+terminal-success transfer over [s, e).
  FlowBuilder& transfer(std::uint64_t tid, std::int64_t file,
                        std::int64_t src, std::int64_t dst, std::int64_t s,
                        std::int64_t e, bool registered = true) {
    tracker.transfer_submitted(tid, file, src, dst, s);
    tracker.link_transfer(id, tid, s, /*shared=*/false);
    tracker.attempt_start(tid, 1, src, dst, s);
    tracker.attempt_end(tid, e, /*success=*/true, /*terminal=*/true,
                        registered);
    return *this;
  }

  obs::FlowTracker& tracker;
  std::int64_t id = 0;
};

const obs::FlowSummary& only_flow(const obs::FlowTracker& tracker) {
  EXPECT_EQ(tracker.completed().size(), 1u);
  return tracker.completed().front();
}

std::int64_t phase_sum(const obs::PhaseBreakdown& ph) {
  return ph.broker_ms + ph.stage_in_ms + ph.queue_ms + ph.run_ms +
         ph.stage_out_ms;
}

// --- critical-path decomposition --------------------------------------------

TEST(FlowCriticalPath, PureSequentialStagingIsFlaggedWithOverlapZero) {
  obs::FlowTracker tracker;
  FlowBuilder(tracker)
      .begin(1, 0)
      .broker(7, 10);
  tracker.stage_begin(1, 10);
  // Two back-to-back transfers: the second starts when the first ends.
  FlowBuilder fb(tracker);
  fb.id = 1;
  fb.transfer(11, 500, 2, 7, 10, 110);
  fb.transfer(12, 501, 3, 7, 110, 210);
  tracker.queue_enter(1, 210, false);
  tracker.run_begin(1, 300);
  tracker.stage_out_begin(1, 400);
  tracker.end_flow(1, 450, /*failed=*/false, /*error=*/0);

  const obs::FlowSummary& flow = only_flow(tracker);
  const obs::PhaseBreakdown& ph = flow.phases;
  EXPECT_EQ(ph.broker_ms, 10);
  EXPECT_EQ(ph.stage_in_ms, 200);
  EXPECT_EQ(ph.queue_ms, 90);
  EXPECT_EQ(ph.run_ms, 100);
  EXPECT_EQ(ph.stage_out_ms, 50);
  EXPECT_EQ(ph.wall_ms, 450);
  EXPECT_EQ(phase_sum(ph), ph.wall_ms);

  // No concurrency at all: union == sum, overlap == 0, flag set.
  EXPECT_EQ(ph.stage_in_serialized_ms, 200);
  EXPECT_EQ(ph.stage_in_busy_ms, 200);
  EXPECT_DOUBLE_EQ(ph.stage_in_overlap, 0.0);
  EXPECT_TRUE(ph.sequential_staging);
  EXPECT_EQ(ph.stage_in_transfers, 2u);
  EXPECT_EQ(ph.stage_in_attempts, 2u);

  // Each link owned its own 100 ms segment; equal shares tie-break on
  // (src, dst) ascending.
  ASSERT_EQ(flow.link_shares.size(), 2u);
  EXPECT_EQ(flow.critical_src(), 2);
  EXPECT_EQ(flow.critical_dst(), 7);
  EXPECT_EQ(flow.critical_ms(), 100);
  EXPECT_EQ(flow.link_shares[1].src, 3);
  EXPECT_EQ(flow.link_shares[1].ms, 100);

  const obs::FlowTotals totals = tracker.totals();
  EXPECT_EQ(totals.flows, 1u);
  EXPECT_EQ(totals.sequential_staging, 1u);
  EXPECT_EQ(totals.failed, 0u);
}

TEST(FlowCriticalPath, ParallelStagingOverlapsAndChargesLastFinisher) {
  obs::FlowTracker tracker;
  FlowBuilder fb(tracker);
  fb.begin(2, 0).broker(7, 10);
  tracker.stage_begin(2, 10);
  // Concurrent transfers: [10, 150) and [10, 210).  The union is 200 ms
  // but 140 ms of it is double-covered, so overlap is well above the
  // sequential-staging threshold.
  fb.transfer(21, 500, 2, 7, 10, 150);
  fb.transfer(22, 501, 3, 7, 10, 210);
  tracker.queue_enter(2, 210, false);
  tracker.run_begin(2, 210);
  tracker.stage_out_begin(2, 210);
  tracker.end_flow(2, 210, false, 0);

  const obs::PhaseBreakdown& ph = only_flow(tracker).phases;
  EXPECT_EQ(ph.stage_in_serialized_ms, 200);
  EXPECT_EQ(ph.stage_in_busy_ms, 340);
  EXPECT_NEAR(ph.stage_in_overlap, 1.0 - 200.0 / 340.0, 1e-12);
  EXPECT_FALSE(ph.sequential_staging);
  EXPECT_EQ(phase_sum(ph), ph.wall_ms);

  // Both segments are charged to transfer 22 (the one finishing last):
  // the job was never waiting on transfer 21 alone.
  const obs::FlowSummary& flow = only_flow(tracker);
  ASSERT_EQ(flow.link_shares.size(), 1u);
  EXPECT_EQ(flow.critical_src(), 3);
  EXPECT_EQ(flow.critical_ms(), 200);
}

TEST(FlowCriticalPath, RetryAndRerouteChainAttributesPerAttemptLink) {
  obs::FlowTracker tracker;
  tracker.begin_flow(3, 100, 2, 0);
  tracker.broker_decision(3, 7, 0);
  tracker.stage_begin(3, 0);
  // Attempt 1 from site 4 fails at 50, the engine reroutes, attempt 2
  // from site 5 succeeds over [60, 160).
  tracker.transfer_submitted(31, 600, 4, 7, 0);
  tracker.link_transfer(3, 31, 0, false);
  tracker.attempt_start(31, 1, 4, 7, 0);
  tracker.attempt_end(31, 50, /*success=*/false, /*terminal=*/false,
                      /*registered=*/false);
  tracker.transfer_rerouted(31);
  tracker.attempt_start(31, 2, 5, 7, 60);
  tracker.attempt_end(31, 160, true, true, true);
  tracker.queue_enter(3, 160, false);
  tracker.run_begin(3, 160);
  tracker.stage_out_begin(3, 160);
  tracker.end_flow(3, 160, false, 0);

  const obs::FlowSummary& flow = only_flow(tracker);
  const obs::PhaseBreakdown& ph = flow.phases;
  EXPECT_EQ(ph.stage_in_transfers, 1u);
  EXPECT_EQ(ph.stage_in_attempts, 2u);
  EXPECT_EQ(ph.reroutes, 1u);
  EXPECT_EQ(ph.stage_in_serialized_ms, 150);  // 50 + 100, gap excluded
  EXPECT_EQ(ph.stage_in_ms, 160);
  EXPECT_EQ(phase_sum(ph), ph.wall_ms);

  // The failed attempt's link still owns the time the job spent waiting
  // on it; the rerouted attempt owns the rest.
  ASSERT_EQ(flow.link_shares.size(), 2u);
  EXPECT_EQ(flow.critical_src(), 5);
  EXPECT_EQ(flow.critical_ms(), 100);
  EXPECT_EQ(flow.link_shares[1].src, 4);
  EXPECT_EQ(flow.link_shares[1].ms, 50);
  EXPECT_EQ(tracker.totals().reroutes, 1u);

  const auto ranking = tracker.link_ranking();
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].src, 5);
  EXPECT_EQ(ranking[0].critical_ms, 100);
  EXPECT_EQ(ranking[0].flows, 1u);
}

TEST(FlowCriticalPath, WatchdogReleaseChargesInFlightAttemptToWindowEnd) {
  obs::FlowTracker tracker;
  tracker.begin_flow(4, 100, 1, 0);
  tracker.broker_decision(4, 7, 0);
  tracker.stage_begin(4, 0);
  // The transfer never finishes; the staging watchdog releases the job
  // into the queue at 100 anyway.
  tracker.transfer_submitted(41, 700, 2, 7, 0);
  tracker.link_transfer(4, 41, 0, false);
  tracker.attempt_start(41, 1, 2, 7, 0);
  tracker.queue_enter(4, 100, /*watchdog_release=*/true);
  tracker.run_begin(4, 120);
  tracker.stage_out_begin(4, 170);
  tracker.end_flow(4, 180, false, 0);

  const obs::FlowSummary& flow = only_flow(tracker);
  EXPECT_TRUE(flow.watchdog_release);
  // In-flight attempt is pessimistically charged up to the window end.
  EXPECT_EQ(flow.phases.stage_in_serialized_ms, 100);
  EXPECT_EQ(flow.phases.stage_in_ms, 100);
  EXPECT_EQ(flow.critical_src(), 2);
  EXPECT_EQ(flow.critical_ms(), 100);
  EXPECT_EQ(phase_sum(flow.phases), flow.phases.wall_ms);
  EXPECT_EQ(tracker.totals().watchdog_releases, 1u);
}

TEST(FlowCriticalPath, MissingBoundariesCollapseAndPartitionStaysExact) {
  obs::FlowTracker tracker;
  // A job killed before it ever staged: only begin and end exist.
  tracker.begin_flow(5, 100, 1, 100);
  tracker.end_flow(5, 500, /*failed=*/true, /*error=*/42);

  const obs::FlowSummary& flow = only_flow(tracker);
  EXPECT_TRUE(flow.failed);
  EXPECT_EQ(flow.error, 42);
  EXPECT_EQ(flow.phases.wall_ms, 400);
  // Unreached phases collapse onto the end boundary: all the wall time
  // lands in broker-wait and the partition stays exact.
  EXPECT_EQ(flow.phases.broker_ms, 400);
  EXPECT_EQ(flow.phases.stage_in_ms, 0);
  EXPECT_EQ(flow.phases.run_ms, 0);
  EXPECT_EQ(phase_sum(flow.phases), flow.phases.wall_ms);
  EXPECT_FALSE(flow.phases.sequential_staging);
  EXPECT_EQ(tracker.totals().failed, 1u);
}

// --- redundancy -------------------------------------------------------------

TEST(FlowRedundancy, SecondTransferOfUnregisteredFileIsRedundant) {
  obs::FlowTracker tracker;
  FlowBuilder fb(tracker);
  fb.begin(6, 0).broker(7, 0);
  tracker.stage_begin(6, 0);
  // First copy lands but is never catalogued; the second submit of the
  // same (file, dst) re-moves bytes that are already there.
  fb.transfer(61, 800, 2, 7, 0, 50, /*registered=*/false);
  fb.transfer(62, 800, 3, 7, 60, 120);
  tracker.queue_enter(6, 120, false);
  tracker.run_begin(6, 120);
  tracker.stage_out_begin(6, 120);
  tracker.end_flow(6, 120, false, 0);

  const obs::PhaseBreakdown& ph = only_flow(tracker).phases;
  EXPECT_EQ(ph.unregistered, 1u);
  EXPECT_EQ(ph.redundant_transfers, 1u);
  EXPECT_EQ(tracker.totals().redundant_transfers, 1u);
}

TEST(FlowRedundancy, ConcurrentInFlightDuplicateIsRedundant) {
  obs::FlowTracker tracker;
  tracker.begin_flow(7, 100, 1, 0);
  tracker.stage_begin(7, 0);
  tracker.transfer_submitted(71, 900, 2, 7, 0);
  tracker.link_transfer(7, 71, 0, false);
  // Same (file, dst) submitted while the first is still in flight.
  tracker.transfer_submitted(72, 900, 3, 7, 10);
  tracker.link_transfer(7, 72, 10, false);
  EXPECT_EQ(tracker.totals().redundant_transfers, 1u);
  // A registered success clears the presence: a later re-stage of the
  // same file (e.g. after cache eviction) is legitimate.
  tracker.attempt_start(71, 1, 2, 7, 0);
  tracker.attempt_end(71, 20, true, true, true);
  tracker.attempt_start(72, 1, 3, 7, 10);
  tracker.attempt_end(72, 30, true, true, true);
  tracker.transfer_submitted(73, 900, 2, 7, 1000);
  EXPECT_EQ(tracker.totals().redundant_transfers, 1u);
  tracker.end_flow(7, 1000, false, 0);
}

// --- collapsed stacks -------------------------------------------------------

TEST(FlowCollapsed, StacksAreLabeledAndDeterministic) {
  obs::FlowTracker tracker;
  FlowBuilder fb(tracker);
  fb.begin(8, 0).broker(7, 10);
  tracker.stage_begin(8, 10);
  fb.transfer(81, 500, 2, 7, 10, 110);
  tracker.queue_enter(8, 150, false);
  tracker.run_begin(8, 250);
  tracker.stage_out_begin(8, 350);
  tracker.end_flow(8, 400, false, 0);

  const std::string numeric = tracker.to_collapsed();
  EXPECT_NE(numeric.find("campaign;site_7;broker 10\n"), std::string::npos)
      << numeric;
  EXPECT_NE(
      numeric.find("campaign;site_7;stage_in;link_site_2->site_7 100\n"),
      std::string::npos);
  EXPECT_NE(numeric.find("campaign;site_7;stage_in;idle 40\n"),
            std::string::npos);
  EXPECT_NE(numeric.find("campaign;site_7;queue 100\n"), std::string::npos);
  EXPECT_NE(numeric.find("campaign;site_7;run 100\n"), std::string::npos);
  EXPECT_NE(numeric.find("campaign;site_7;stage_out 50\n"),
            std::string::npos);

  // Site labels are sanitized (separators would corrupt the format) and
  // rendering is a pure function of the tracker state.
  const auto name = [](std::int64_t site) {
    return site == 7 ? std::string("CERN PROD;T0") : std::string();
  };
  const std::string labeled = tracker.to_collapsed(name);
  EXPECT_NE(labeled.find("campaign;CERN_PROD_T0;queue 100\n"),
            std::string::npos)
      << labeled;
  EXPECT_EQ(tracker.to_collapsed(), numeric);
}

TEST(FlowCollapsed, WriteToFullDiskFails) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  obs::FlowTracker tracker;
  FlowBuilder fb(tracker);
  fb.begin(8, 0).broker(7, 10);
  tracker.end_flow(8, 400, false, 0);
  ASSERT_FALSE(tracker.to_collapsed().empty());
  EXPECT_FALSE(tracker.write_collapsed("/dev/full"));
}

// --- event emission ---------------------------------------------------------

TEST(FlowEmission, FlowEventsReachTheInstalledEventLog) {
  ASSERT_EQ(obs::FlowTracker::installed(), nullptr);
  obs::EventLog log;
  log.install();
  {
    obs::FlowTracker tracker;
    tracker.install();
    ASSERT_EQ(obs::FlowTracker::installed(), &tracker);
    FlowBuilder fb(tracker);
    fb.begin(9, 0).broker(7, 10);
    tracker.stage_begin(9, 10);
    fb.transfer(91, 500, 2, 7, 10, 110);
    tracker.queue_enter(9, 110, false);
    tracker.run_begin(9, 200);
    tracker.stage_out_begin(9, 300);
    tracker.end_flow(9, 350, false, 0);
    tracker.uninstall();
  }
  EXPECT_EQ(obs::FlowTracker::installed(), nullptr);
  log.uninstall();

  const std::string ndjson = log.to_ndjson();
  for (const char* kind :
       {"flow_begin", "flow_broker", "flow_stage", "flow_link", "flow_queue",
        "flow_run", "flow_stage_out", "flow_end"}) {
    EXPECT_NE(ndjson.find("\"kind\":\"" + std::string(kind) + "\""),
              std::string::npos)
        << "missing " << kind;
  }
  // flow_end carries the full decomposition.
  EXPECT_NE(ndjson.find("\"wall_ms\":350"), std::string::npos) << ndjson;
  EXPECT_NE(ndjson.find("\"crit_src\":2"), std::string::npos);
}

// --- recorded-event mapping -------------------------------------------------

void observe_line(obs::FlowTracker& tracker, const std::string& line) {
  obs::DecodedEvent event;
  ASSERT_TRUE(obs::scan_ndjson_line(line, event)) << line;
  tracker.observe(event);
}

// observe() maps each recorded kind onto the hook that emitted it, so a
// recorded timeline and the same hook calls leave identical trackers.
TEST(FlowObserve, RecordedEventsDriveTheSameHooks) {
  obs::FlowTracker direct;
  FlowBuilder fb(direct);
  fb.begin(9, 0).broker(7, 10);
  direct.stage_begin(9, 10);
  fb.transfer(91, 500, 2, 7, 10, 110);
  direct.transfer_submitted(92, 501, 3, 7, 20);
  direct.link_transfer(9, 92, 20, /*shared=*/true);
  direct.attempt_start(92, 1, 3, 7, 20);
  direct.attempt_end(92, 40, false, /*terminal=*/false, false);
  direct.transfer_rerouted(92);
  direct.attempt_start(92, 2, 4, 7, 50);
  direct.attempt_end(92, 90, false, /*terminal=*/true, false);
  direct.queue_enter(9, 110, /*watchdog_release=*/true);
  direct.run_begin(9, 200);
  direct.stage_out_begin(9, 300);
  direct.end_flow(9, 350, /*failed=*/true, 1305);

  obs::FlowTracker replayed;
  for (const char* line : {
           R"({"ts":0,"kind":"flow_begin","entity":9,"task":100,"attempt":1})",
           R"({"ts":10,"kind":"flow_broker","entity":9,"parent":9,)"
           R"("site":7,"candidates":5})",
           R"({"ts":10,"kind":"flow_stage","entity":9,"parent":9})",
           R"({"ts":10,"kind":"transfer_submit","entity":91,"file":500,)"
           R"("src":2,"dst":7})",
           R"({"ts":10,"kind":"flow_link","entity":9,"parent":9,)"
           R"("transfer":91,"shared":false,"phase":"stage_in"})",
           R"({"ts":10,"kind":"transfer_start","entity":91,"attempt":1,)"
           R"("src":2,"dst":7})",
           R"({"ts":110,"kind":"transfer_done","entity":91,)"
           R"("registered":true})",
           R"({"ts":20,"kind":"transfer_submit","entity":92,"file":501,)"
           R"("src":3,"dst":7})",
           R"({"ts":20,"kind":"flow_link","entity":9,"parent":9,)"
           R"("transfer":92,"shared":true,"phase":"stage_in"})",
           R"({"ts":20,"kind":"transfer_start","entity":92,"attempt":1,)"
           R"("src":3,"dst":7})",
           R"({"ts":40,"kind":"transfer_retry","entity":92})",
           R"({"ts":40,"kind":"transfer_reroute","entity":92})",
           R"({"ts":50,"kind":"transfer_start","entity":92,"attempt":2,)"
           R"("src":4,"dst":7})",
           R"({"ts":90,"kind":"transfer_fail","entity":92,)"
           R"("registered":false})",
           R"({"ts":110,"kind":"flow_queue","entity":9,"parent":9,)"
           R"("watchdog":true})",
           R"({"ts":200,"kind":"flow_run","entity":9,"parent":9})",
           R"({"ts":300,"kind":"flow_stage_out","entity":9,"parent":9})",
           R"({"ts":350,"kind":"flow_end","entity":9,"parent":9,)"
           R"("failed":true,"error":1305})",
       }) {
    observe_line(replayed, line);
  }

  const obs::FlowSummary& a = only_flow(direct);
  const obs::FlowSummary& b = only_flow(replayed);
  EXPECT_EQ(b.taskid, a.taskid);
  EXPECT_EQ(b.site, a.site);
  EXPECT_EQ(b.failed, a.failed);
  EXPECT_EQ(b.error, 1305);
  EXPECT_TRUE(b.watchdog_release);
  EXPECT_EQ(b.shared_hits, 1u);
  EXPECT_EQ(b.phases.wall_ms, a.phases.wall_ms);
  EXPECT_EQ(b.phases.stage_in_serialized_ms, a.phases.stage_in_serialized_ms);
  EXPECT_EQ(b.phases.stage_in_attempts, 3u);
  EXPECT_EQ(b.phases.reroutes, 1u);
  EXPECT_EQ(b.critical_src(), a.critical_src());
  EXPECT_EQ(b.critical_ms(), a.critical_ms());
  EXPECT_EQ(replayed.state_digest(), direct.state_digest());
  EXPECT_EQ(replayed.to_collapsed(), direct.to_collapsed());
}

// Every other kind — alerts, job lifecycle, unknown kinds — and events
// missing `kind` or `ts` leave the tracker untouched.
TEST(FlowObserve, OtherKindsAndEnvelopeLessEventsAreIgnored) {
  obs::FlowTracker tracker;
  observe_line(tracker,
               R"({"ts":0,"kind":"flow_begin","entity":5,"task":1})");
  ASSERT_EQ(tracker.open_flows(), 1u);
  const std::uint64_t digest = tracker.state_digest();
  for (const char* line : {
           R"({"ts":10,"kind":"alert","entity":"link:0->1",)"
           R"("detector":"link_util_spike","phase":"firing"})",
           R"({"ts":20,"kind":"job_state","entity":5,"state":"running"})",
           R"({"ts":30,"kind":"no_such_kind","entity":5})",
           R"({"ts":40,"kind":"transfer_record","entity":5,"src":1})",
           R"({"kind":"flow_end","entity":5})",
           R"({"ts":50,"entity":5,"failed":true})",
           R"({"ts":60,"kind":"","entity":5})",
       }) {
    observe_line(tracker, line);
  }
  EXPECT_EQ(tracker.state_digest(), digest);
  EXPECT_EQ(tracker.open_flows(), 1u);
  EXPECT_TRUE(tracker.completed().empty());

  observe_line(tracker, R"({"ts":70,"kind":"flow_end","entity":5})");
  EXPECT_EQ(tracker.open_flows(), 0u);
  ASSERT_EQ(tracker.completed().size(), 1u);
  EXPECT_EQ(tracker.completed().front().phases.wall_ms, 70);
}

// --- campaign invariants ----------------------------------------------------

TEST(FlowCampaign, PhasesPartitionWallAndRunsAreDeterministic) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.5;
  config.seed = 20250401;

  const auto run_once = [&config] {
    obs::FlowTracker tracker;
    tracker.install();
    const scenario::ScenarioResult result = scenario::run_campaign(config);
    tracker.uninstall();
    return std::tuple{std::vector<obs::FlowSummary>(tracker.completed()),
                      tracker.totals(), tracker.link_ranking(),
                      result.events_processed};
  };

  const auto [flows, totals, ranking, events] = run_once();
  ASSERT_GT(flows.size(), 0u);
  EXPECT_EQ(totals.flows, flows.size());

  std::int64_t attributed = 0;
  for (const obs::FlowSummary& flow : flows) {
    const obs::PhaseBreakdown& ph = flow.phases;
    ASSERT_EQ(phase_sum(ph), ph.wall_ms) << "pandaid " << flow.pandaid;
    ASSERT_GE(ph.wall_ms, 0);
    ASSERT_LE(ph.stage_in_serialized_ms, ph.stage_in_ms);
    ASSERT_LE(ph.stage_in_serialized_ms, ph.stage_in_busy_ms);
    ASSERT_GE(ph.stage_in_overlap, 0.0);
    ASSERT_LE(ph.stage_in_overlap, 1.0);
    std::int64_t share_sum = 0;
    for (const auto& share : flow.link_shares) share_sum += share.ms;
    // Link shares partition the serialized stage-in time exactly.
    ASSERT_EQ(share_sum, ph.stage_in_serialized_ms);
    attributed += share_sum;
  }
  std::int64_t ranked = 0;
  for (const auto& link : ranking) ranked += link.critical_ms;
  EXPECT_EQ(ranked, attributed);

  // Same seed, fresh tracker: byte-for-byte identical attribution.
  const auto [flows2, totals2, ranking2, events2] = run_once();
  EXPECT_EQ(events2, events);
  ASSERT_EQ(flows2.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows2[i].pandaid, flows[i].pandaid);
    EXPECT_EQ(flows2[i].phases.wall_ms, flows[i].phases.wall_ms);
    EXPECT_EQ(flows2[i].phases.stage_in_serialized_ms,
              flows[i].phases.stage_in_serialized_ms);
    EXPECT_EQ(flows2[i].critical_ms(), flows[i].critical_ms());
  }
  EXPECT_EQ(totals2.flows, totals.flows);
  EXPECT_EQ(totals2.redundant_transfers, totals.redundant_transfers);
  ASSERT_EQ(ranking2.size(), ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking2[i].src, ranking[i].src);
    EXPECT_EQ(ranking2[i].dst, ranking[i].dst);
    EXPECT_EQ(ranking2[i].critical_ms, ranking[i].critical_ms);
  }
}

// --- analyzer quantiles -----------------------------------------------------

TEST(FlowQuantiles, PhaseQuantilesCoverEveryPhaseRow) {
  obs::FlowTracker tracker;
  for (std::int64_t i = 1; i <= 4; ++i) {
    tracker.begin_flow(i, 100, 1, 0);
    tracker.stage_begin(i, 10 * i);
    tracker.queue_enter(i, 20 * i, false);
    tracker.run_begin(i, 40 * i);
    tracker.stage_out_begin(i, 80 * i);
    tracker.end_flow(i, 100 * i, false, 0);
  }
  const analysis::FlowAnalysis out = analysis::analyze_flows(tracker);
  ASSERT_EQ(out.flows.size(), 4u);
  ASSERT_EQ(out.quantiles.size(), 7u);
  std::int64_t wall_total = 0;
  for (const analysis::PhaseQuantiles& q : out.quantiles) {
    EXPECT_LE(q.p50, q.p95);
    EXPECT_LE(q.p95, q.p99);
    EXPECT_LE(q.p99, q.max);
    if (q.phase == "wall") wall_total = q.total_ms;
  }
  EXPECT_EQ(wall_total, 100 + 200 + 300 + 400);
  // Rendering is total: every phase row appears in the table.
  const std::string table = analysis::render_attribution(out);
  for (const char* phase : {"broker", "stage_in", "queue", "run",
                            "stage_out", "wall"}) {
    EXPECT_NE(table.find(phase), std::string::npos) << table;
  }
}

}  // namespace
