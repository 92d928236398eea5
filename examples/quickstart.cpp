// Quickstart: run a small campaign, link jobs to transfers with all
// three matching strategies, and print the paper-style summaries plus
// the pipeline's own observability funnel.
//
//   ./quickstart [seed]
//
// Set PANDARUS_METRICS=metrics.json / PANDARUS_TRACE=trace.json to also
// dump the full metrics snapshot and a Perfetto-loadable trace at exit.
#include <cstdlib>
#include <iostream>

#include "pandarus.hpp"

namespace {

/// Table-2-style coverage funnel, read back from the obs registry the
/// matchers instrument into (cumulative over all three methods).
void print_match_funnel(const pandarus::obs::Snapshot& snap) {
  using pandarus::obs::Snapshot;
  const auto c = [&snap](const char* name) {
    return snap.counter_value(name);
  };
  std::cout << "\nMatch funnel (all methods, from pandarus_match_* metrics):\n"
            << "  jobs examined            "
            << c("pandarus_match_jobs_examined_total") << "\n"
            << "    no file-table rows     "
            << c("pandarus_match_jobs_no_file_rows_total") << "\n"
            << "    no candidates          "
            << c("pandarus_match_jobs_no_candidates_total") << "\n"
            << "    size-sum gate failed   "
            << c("pandarus_match_reject_size_sum_total") << "\n"
            << "    site check eliminated  "
            << c("pandarus_match_jobs_site_eliminated_total") << "\n"
            << "    matched                "
            << c("pandarus_match_jobs_matched_total") << "\n"
            << "  candidates scanned       "
            << c("pandarus_match_candidates_scanned_total")
            << " (attr-key -" << c("pandarus_match_reject_attr_key_total")
            << ", time -" << c("pandarus_match_reject_time_total")
            << ", site -" << c("pandarus_match_reject_site_total") << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandarus;

  obs::install_env_hooks();

  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);

  std::cout << "Running a " << config.days
            << "-day campaign (seed " << config.seed << ") ...\n";
  const scenario::ScenarioResult result = scenario::run_campaign(config);

  std::cout << "Simulated " << result.workload.user_jobs << " user jobs, "
            << result.workload.prod_jobs << " production jobs, "
            << result.transfers.completed << " completed transfers ("
            << util::format_bytes(
                   static_cast<double>(result.transfers.bytes_moved))
            << " moved), " << result.events_processed << " events.\n";
  std::cout << "  stage-ins " << result.panda.stage_in_transfers
            << " (shared hits " << result.panda.shared_stage_hits
            << ", timeouts " << result.panda.stage_timeouts << "), uploads "
            << result.panda.upload_transfers << ", carousel "
            << result.rules.staged_from_tape << ", rule transfers "
            << result.rules.transfers_submitted << ", failed jobs "
            << result.panda.failed << "/"
            << (result.panda.finished + result.panda.failed) << "\n\n";

  // The paper's core step: link PanDA jobs to Rucio transfer events.
  const core::Matcher matcher(result.store);
  const core::TriMatchResult tri = core::run_all_methods(matcher);

  analysis::print_overall(std::cout,
                          analysis::overall_summary(result.store, tri.exact));
  std::cout << '\n';
  analysis::print_table1(std::cout,
                         analysis::activity_breakdown(result.store, tri.exact));
  std::cout << '\n';
  analysis::print_table2(std::cout,
                         analysis::compare_methods(result.store, tri));
  print_match_funnel(obs::Registry::global().snapshot());

  // One case study, if the campaign produced the pattern.
  const analysis::CaseStudyExtractor extractor(result.store, tri);
  if (const auto cs = extractor.sequential_staging_case()) {
    std::cout << "\nSequential-staging case study (Fig. 10 analogue):\n"
              << analysis::render_timeline(result.store, cs->match);
  }
  return 0;
}
