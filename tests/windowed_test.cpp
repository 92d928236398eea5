// Unit tests for the windowed matcher on hand-built stores where the
// expected window arithmetic is checkable by eye.
#include <gtest/gtest.h>

#include "core/windowed.hpp"
#include "obs/metrics.hpp"

namespace pandarus::core {
namespace {

using telemetry::FileRecord;
using telemetry::JobRecord;
using telemetry::MetadataStore;
using telemetry::TransferRecord;

/// One job per hour, each with one matching local transfer just before
/// its start.
MetadataStore hourly_store(int n_jobs) {
  MetadataStore store;
  for (int i = 0; i < n_jobs; ++i) {
    const util::SimTime base = util::hours(i);
    JobRecord j;
    j.pandaid = 100 + i;
    j.jeditaskid = 7;
    j.computing_site = 0;
    j.creation_time = base;
    j.start_time = base + util::minutes(10);
    j.end_time = base + util::minutes(40);
    j.ninputfilebytes = 500;
    store.record_job(j);

    const FileRecord f{.pandaid = j.pandaid,
                       .jeditaskid = 7,
                       .lfn = 'f' + std::to_string(i),
                       .dataset = "ds",
                       .proddblock = "blk",
                       .scope = "mc23",
                       .file_size = 500};
    store.record_file(f);

    TransferRecord t;
    t.transfer_id = static_cast<std::uint64_t>(1000 + i);
    t.jeditaskid = 7;
    t.lfn = f.lfn;
    t.dataset = f.dataset;
    t.proddblock = f.proddblock;
    t.scope = f.scope;
    t.file_size = 500;
    t.source_site = 0;
    t.destination_site = 0;
    t.activity = dms::Activity::kAnalysisDownload;
    t.started_at = base + util::minutes(2);
    t.finished_at = base + util::minutes(8);
    t.success = true;
    store.record_transfer(t);
  }
  return store;
}

TEST(WindowedMatcher, WindowCountCoversJobSpan) {
  const MetadataStore store = hourly_store(10);  // ends span ~9h40m
  WindowedMatcher::Config config;
  config.window = util::hours(2);
  const WindowedMatcher matcher(Matcher(store), config);
  EXPECT_EQ(matcher.window_count(), 5u);
}

TEST(WindowedMatcher, EmptyStoreYieldsNothing) {
  MetadataStore store;
  const WindowedMatcher matcher(Matcher(store), {});
  EXPECT_EQ(matcher.window_count(), 0u);
  EXPECT_EQ(matcher.run(MatchOptions::exact()).matched_job_count(), 0u);
}

TEST(WindowedMatcher, MatchesEveryJobWithAdequateLookback) {
  const MetadataStore store = hourly_store(12);
  WindowedMatcher::Config config;
  config.window = util::hours(3);
  config.lookback = util::hours(1);  // covers each job's own transfer
  const WindowedMatcher matcher(Matcher(store), config);
  const MatchResult result = matcher.run(MatchOptions::exact());
  EXPECT_EQ(result.matched_job_count(), 12u);
  // Original indices, ordered.
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].job_index, i);
    ASSERT_EQ(result.jobs[i].transfer_indices.size(), 1u);
    EXPECT_EQ(result.jobs[i].transfer_indices[0], i);
  }
}

TEST(WindowedMatcher, AgreesWithGlobalMatcher) {
  const MetadataStore store = hourly_store(24);
  const Matcher global(store);
  WindowedMatcher::Config config;
  config.window = util::hours(5);
  config.lookback = util::hours(2);
  const WindowedMatcher windowed(global, config);
  for (const auto options :
       {MatchOptions::exact(), MatchOptions::rm1(), MatchOptions::rm2()}) {
    const auto a = global.run(options);
    const auto b = windowed.run(options);
    ASSERT_EQ(a.matched_job_count(), b.matched_job_count());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].job_index, b.jobs[i].job_index);
      EXPECT_EQ(a.jobs[i].transfer_indices, b.jobs[i].transfer_indices);
    }
  }
}

TEST(WindowedMatcher, SharesTheMatchersIndex) {
  // Windowing is a filter over the matcher's index: running it must not
  // build another one, whatever the window count.
  const MetadataStore store = hourly_store(24);
  const Matcher global(store);
  WindowedMatcher::Config config;
  config.window = util::hours(1);
  const WindowedMatcher windowed(global, config);
  ASSERT_GT(windowed.window_count(), 1u);
  const auto builds = [] {
    return obs::Registry::global().snapshot().counter_value(
        "pandarus_match_index_builds_total");
  };
  const std::uint64_t before = builds();
  EXPECT_EQ(windowed.run(MatchOptions::exact()).matched_job_count(), 24u);
  EXPECT_EQ(builds(), before);
}

TEST(WindowedMatcher, ShortLookbackDropsOldTransfers) {
  // Put the transfer a full day before the job: a 1-hour lookback with a
  // 1-hour window cannot see it.
  MetadataStore store = hourly_store(2);
  store.transfers_mutable()[0].started_at = -util::days(1);
  store.transfers_mutable()[0].finished_at =
      -util::days(1) + util::minutes(5);
  // Job 1 ends exactly on the boundary between the first window
  // [40m, 1h40m) and the second, so it belongs to the second window,
  // whose lookback starts at 40m.  Its transfer at 30m is inside the
  // first window's lookback but not the second's: it must be dropped.
  store.jobs_mutable()[1].end_time = util::minutes(100);
  store.transfers_mutable()[1].started_at = util::minutes(30);
  store.transfers_mutable()[1].finished_at = util::minutes(35);
  WindowedMatcher::Config config;
  config.window = util::hours(1);
  config.lookback = util::hours(1);
  const Matcher global(store);
  const WindowedMatcher windowed(global, config);
  EXPECT_EQ(windowed.window_count(), 2u);
  EXPECT_EQ(windowed.run(MatchOptions::rm1()).matched_job_count(), 0u);
  // The global matcher still finds both.
  EXPECT_EQ(global.run(MatchOptions::rm1()).matched_job_count(), 2u);
}

}  // namespace
}  // namespace pandarus::core
