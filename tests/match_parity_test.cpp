// Parity tests for the matching core: matchers sharing one MatchIndex
// must be observationally identical to a matcher that built its own,
// deterministically, for every matching method.  Any divergence in group
// contents, composite keys or order shows up here as a differing
// MatchedJob set.
#include <gtest/gtest.h>

#include "pandarus.hpp"

namespace {

using namespace pandarus;

const telemetry::MetadataStore& seeded_store() {
  static const scenario::ScenarioResult result = [] {
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.5;
    config.seed = 20260805;
    return scenario::run_campaign(config);
  }();
  return result.store;
}

const core::MatchOptions kMethods[] = {
    core::MatchOptions::exact(),
    core::MatchOptions::rm1(),
    core::MatchOptions::rm2(),
};

void expect_identical(const core::MatchResult& a, const core::MatchResult& b,
                      const char* label) {
  EXPECT_EQ(a.jobs_considered, b.jobs_considered) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const core::MatchedJob& x = a.jobs[i];
    const core::MatchedJob& y = b.jobs[i];
    EXPECT_EQ(x.job_index, y.job_index) << label << " job " << i;
    EXPECT_EQ(x.transfer_indices, y.transfer_indices)
        << label << " job_index " << x.job_index;
    EXPECT_EQ(x.local_transfers, y.local_transfers) << label;
    EXPECT_EQ(x.remote_transfers, y.remote_transfers) << label;
  }
}

TEST(MatchParity, ScenarioProducesWork) {
  const auto& store = seeded_store();
  ASSERT_GT(store.jobs().size(), 100u);
  ASSERT_GT(store.transfers().size(), 100u);
  // A parity test over an empty matched set would be vacuous.
  const core::Matcher matcher(store);
  EXPECT_GT(matcher.run(core::MatchOptions::rm2()).matched_job_count(), 0u);
}

TEST(MatchParity, SharedIndexAcrossMatchers) {
  // Matchers constructed over the same shared index agree with a
  // matcher that built its own.
  const auto& store = seeded_store();
  const auto index = std::make_shared<const core::MatchIndex>(store);
  const core::Matcher a{index};
  const core::Matcher own(store);
  for (const auto& options : kMethods) {
    expect_identical(own.run(options), a.run(options),
                     core::method_name(options.method));
  }
}

}  // namespace
