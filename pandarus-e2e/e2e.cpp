// pandarus-e2e: the campaign-to-report benchmark program.
//
//   pandarus-e2e --workload paper-8d|long-24d|observed-2d [--seed N]
//                [--seconds S] [--trace 0|1] [--workdir DIR]
//                [--ledger FILE] [--expect NAME=COUNT]...
//
// Runs one workload from config to report through the library's public
// entry points only, repeating the whole pipeline until --seconds of wall
// time have passed (at least once).  Every iteration checks its outputs.
// The last line of stdout is one JSON document holding the end-to-end
// medians (--trace 0) or the per-layer ledger (--trace 1), the check
// tally, and the counts a recorded seed must reproduce (run.py passes
// its reference values back in as --expect).
//
// The program is single-threaded: it uses neither parallel::ThreadPool
// nor core::ParallelMatchDriver, and arms no periodic flusher.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pandarus.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace pandarus;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

// ------------------------------------------------------------- options --

struct Workload {
  const char* name;
  double days;
  bool observed;  ///< all four obs sinks armed, recorded stream replayed
};

constexpr Workload kWorkloads[] = {
    {"paper-8d", 8.0, false},
    {"long-24d", 24.0, false},
    {"observed-2d", 2.0, true},
};

struct Options {
  Workload workload = kWorkloads[0];
  std::uint64_t seed = 20250401;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir = ".";
  std::string ledger;  ///< traced run: per-layer JSON file ("" = none)
  /// Reference counts of a recorded seed (--expect NAME=COUNT).
  std::map<std::string, std::uint64_t> expected;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "pandarus-e2e: " << error << "\n"
            << "usage: pandarus-e2e --workload paper-8d|long-24d|observed-2d"
               " [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]"
               " [--ledger FILE] [--expect NAME=COUNT]...\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto* it = std::find_if(
          std::begin(kWorkloads), std::end(kWorkloads),
          [&](const Workload& w) { return value == w.name; });
      if (it == std::end(kWorkloads)) usage("unknown workload " + value);
      opt.workload = *it;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--ledger") {
      opt.ledger = value;
    } else if (arg == "--expect") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) usage("--expect wants NAME=COUNT");
      opt.expected[value.substr(0, eq)] =
          std::strtoull(value.c_str() + eq + 1, nullptr, 10);
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

/// The user's environment must not change a workload: every
/// PANDARUS_* knob (sinks, checkpoints, log level, ...) is dropped
/// before the library sees it.
void clear_pandarus_env() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (entry.rfind("PANDARUS_", 0) == 0) {
      names.emplace_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// -------------------------------------------------------------- checks --

/// Output checks: every expectation counts as attempted; the failures
/// feed `failed` and check_fail_ratio.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 32) failures.push_back(what);
  }
};

/// Counts a recorded seed must reproduce exactly.
using Counts = std::map<std::string, std::uint64_t>;

Counts store_counts(const telemetry::MetadataStore& store) {
  const telemetry::MetadataStore::Counts c = store.counts();
  return {{"store.jobs", c.jobs},
          {"store.files", c.files},
          {"store.transfers", c.transfers},
          {"store.transfers_with_taskid", c.transfers_with_taskid}};
}

/// Matched jobs per method, and matched transfers as Table 2a counts
/// them (distinct transfers, local + remote).
Counts match_counts(const telemetry::MetadataStore& store,
                    const core::TriMatchResult& tri) {
  const analysis::MethodComparison table = analysis::compare_methods(store, tri);
  return {{"matched_jobs.exact", tri.exact.matched_job_count()},
          {"matched_jobs.rm1", tri.rm1.matched_job_count()},
          {"matched_jobs.rm2", tri.rm2.matched_job_count()},
          {"matched_transfers.exact", table.transfers[0].total()},
          {"matched_transfers.rm1", table.transfers[1].total()},
          {"matched_transfers.rm2", table.transfers[2].total()}};
}

double activity_rate(const analysis::ActivityBreakdown& breakdown,
                     dms::Activity activity) {
  for (const analysis::ActivityRow& row : breakdown.rows) {
    if (row.activity == activity) return row.percentage();
  }
  return 0.0;
}

/// The last event of an NDJSON file (the terminal log_stats line),
/// read from the file's tail.
std::optional<util::json::Value> last_ndjson_event(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  const std::streamoff tail = std::min<std::streamoff>(size, 64 * 1024);
  std::string text(static_cast<std::size_t>(tail), '\0');
  in.seekg(size - tail);
  in.read(text.data(), tail);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return util::json::parse(text.substr(text.rfind('\n') + 1));
}

// -------------------------------------------------------------- timing --

/// Runs `body` inside a benchmark-side span (category = the layer it
/// calls into) and returns its wall time in seconds.  With no
/// TraceRecorder installed the span costs one relaxed atomic load.
template <typename Body>
double timed(const char* name, const char* layer, Body&& body) {
  const obs::ScopedSpan span(name, layer);
  const Clock::time_point start = Clock::now();
  body();
  return seconds_since(start);
}

/// Registry counter deltas across one call boundary.
struct CounterDeltas {
  obs::Snapshot before = obs::Registry::global().snapshot();
  obs::Snapshot after;

  void stop() { after = obs::Registry::global().snapshot(); }
  [[nodiscard]] double operator()(std::string_view name) const {
    return static_cast<double>(after.counter_value(name) -
                               before.counter_value(name));
  }
};

// --------------------------------------------------------------- sinks --

enum SinkMask : unsigned {
  kNoSinks = 0,
  kNdjson = 1,
  kColstore = 2,
  kFlows = 4,
  kAlerts = 8,
  kAllSinks = 15,
};

/// Observability sinks armed through the public obs API for one
/// campaign, writing into `dir`; uninstalled when finished or destroyed.
class Sinks {
 public:
  Sinks(unsigned mask, const fs::path& dir)
      : mask_(mask),
        ndjson_path_(dir / "events.ndjson"),
        colstore_path_(dir / "events.colstore") {
    if ((mask & (kNdjson | kColstore)) != 0) {
      log_ = std::make_unique<obs::EventLog>();
      log_->install();
    }
    if ((mask & kFlows) != 0) {
      flows_ = std::make_unique<obs::FlowTracker>();
      flows_->install();
    }
    if ((mask & kAlerts) != 0) {
      health_ = std::make_unique<obs::HealthEngine>();
      health_->install();
    }
  }
  ~Sinks() { uninstall(); }
  Sinks(const Sinks&) = delete;
  Sinks& operator=(const Sinks&) = delete;

  /// Closes the log (terminal log_stats line), writes the armed file
  /// sinks and uninstalls everything.  False on a write failure.
  bool finish() {
    uninstall();
    if (log_ == nullptr) return true;
    log_->close();
    bool ok = true;
    if ((mask_ & kNdjson) != 0) ok = log_->write_ndjson(ndjson_path_) && ok;
    if ((mask_ & kColstore) != 0) {
      ok = obs::write_colstore(*log_, colstore_path_) && ok;
    }
    return ok;
  }

  [[nodiscard]] const obs::EventLog* log() const { return log_.get(); }
  [[nodiscard]] const obs::HealthEngine* health() const {
    return health_.get();
  }
  [[nodiscard]] const fs::path& ndjson_path() const { return ndjson_path_; }
  [[nodiscard]] const fs::path& colstore_path() const {
    return colstore_path_;
  }

 private:
  void uninstall() {
    if (health_ != nullptr) health_->uninstall();
    if (flows_ != nullptr) flows_->uninstall();
    if (log_ != nullptr) log_->uninstall();
  }

  unsigned mask_;
  fs::path ndjson_path_;
  fs::path colstore_path_;
  std::unique_ptr<obs::EventLog> log_;
  std::unique_ptr<obs::FlowTracker> flows_;
  std::unique_ptr<obs::HealthEngine> health_;
};

/// Everything a run needs before run_campaign: the config and the armed
/// sinks, which write into `dir`.  Destruction uninstalls the sinks.
struct Setup {
  Setup(const Options& opt, std::uint64_t seed, unsigned sink_mask,
        const fs::path& dir)
      : config(scenario::ScenarioConfig::paper_scale()) {
    config.seed = seed;
    config.days = opt.workload.days;
    if (sink_mask != kNoSinks) sinks = std::make_unique<Sinks>(sink_mask, dir);
  }

  scenario::ScenarioConfig config;
  std::unique_ptr<Sinks> sinks;
};

// ------------------------------------------------------------ pipeline --

/// Set-up is repeated this many times per iteration (each torn down
/// untimed) and reported as a median, since one set-up is microseconds.
constexpr int kSetupReps = 25;

/// Iteration i of a run simulates campaign seed iteration_seed(seed, i):
/// the run's own seed first, then splitmix64-derived seeds, so a run's
/// medians average over several campaigns rather than one.
std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + i * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The kernel's peak-RSS watermark (VmHWM) in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Per-layer values gathered during a traced iteration.
using LayerValues = std::map<std::string, double>;

struct Iteration {
  std::vector<double> setup_samples;
  double campaign_s = 0.0;
  double analysis_s = 0.0;
  double total_s = 0.0;
  Counts counts;
  /// Exact-matched transfers by locality (Table 2a), pooled over the run.
  std::uint64_t exact_local = 0;
  std::uint64_t exact_remote = 0;
};

/// What a traced iteration keeps alive for the per-job match sweep.
struct Kept {
  std::unique_ptr<scenario::ScenarioResult> result;
  std::unique_ptr<core::Matcher> matcher;
};

/// What the analysis stage produced, kept for the checks and the ledger.
struct Analysis {
  std::unique_ptr<core::Matcher> matcher;
  core::TriMatchResult tri;
  analysis::OverallSummary overall;
  analysis::ActivityBreakdown activity;
  analysis::MethodComparison comparison;
  analysis::TransferHeatmap::Summary heatmap;
  std::size_t top_cells = 0;
  std::size_t breakdown_rows = 0;
  std::size_t swept_jobs = 0;
  /// Rendered size of each case study (Figs. 10, 11, 12); empty when
  /// the extractor found no qualifying job.
  std::optional<std::size_t> sequential_case;
  std::optional<std::size_t> failed_case;
  std::optional<std::size_t> redundant_case;
  std::uintmax_t report_bytes = 0;
};

class Pipeline {
 public:
  Pipeline(const Options& opt, const fs::path& dir, Checks& checks)
      : opt_(opt), dir_(dir), checks_(checks) {}

  /// One config-to-report pass over campaign `seed`.  `layer` (traced
  /// run) receives the per-layer counts; `kept` the store and matcher.
  Iteration run(std::uint64_t seed, LayerValues* layer, Kept* kept);
  /// The DESIGN.md section 7 shapes that only hold statistically, over
  /// the run's campaigns pooled.
  void check_pooled_shapes(const std::vector<Iteration>& iterations);

 private:
  /// Corrupted store to text report: index, 3 matchers, every analysis
  /// and write_campaign_report.  `layer` receives the match funnel.
  Analysis analyze(const scenario::ScenarioResult& result, LayerValues* layer);
  /// The DESIGN.md section 7 shapes and the analyses' consistency.
  void check_analysis(const telemetry::MetadataStore& store,
                      const Analysis& a);
  /// Replays, health derivation and HTML report over both recorded
  /// encodings, then one metric query over the colstore file.
  void report_recorded(const Sinks& sinks, const Counts& expected,
                       double& check_s);

  const Options& opt_;
  const fs::path& dir_;
  Checks& checks_;
};

/// The traced iteration's counts: the Stats structs, the store, the
/// match results and the sinks.
void record_layers(const scenario::ScenarioResult& r, const Analysis& a,
                   const Sinks* sinks, std::uint64_t unfinished,
                   LayerValues& l) {
  const auto set = [&l](const char* name, std::uint64_t v) {
    l[name] = static_cast<double>(v);
  };
  set("dms.transfers_submitted", r.transfers.submitted);
  set("dms.transfers_completed", r.transfers.completed);
  set("dms.transfers_failed", r.transfers.failed);
  set("dms.transfers_in_flight", r.transfers_in_flight);
  set("dms.retries", r.transfers.retries);
  set("dms.rule_passes", r.rules.passes);
  set("dms.rule_transfers", r.rules.transfers_submitted);
  set("dms.tape_stages", r.rules.staged_from_tape);
  set("dms.deletion_sweeps", r.deletion.sweeps);
  set("dms.replicas_deleted", r.deletion.replicas_deleted);
  set("wms.jobs_submitted", r.panda.submitted);
  set("wms.jobs_finished", r.panda.finished);
  set("wms.jobs_failed", r.panda.failed);
  set("wms.jobs_unfinished", unfinished);
  set("wms.stage_in_transfers", r.panda.stage_in_transfers);
  set("wms.shared_stage_hits", r.panda.shared_stage_hits);
  set("wms.stage_timeouts", r.panda.stage_timeouts);
  const telemetry::MetadataStore::Counts c = r.store.counts();
  set("telemetry.jobs", c.jobs);
  set("telemetry.files", c.files);
  set("telemetry.transfers", c.transfers);
  set("telemetry.unknown_dst", r.corruption.transfers_destination_unknown);
  set("telemetry.size_jittered", r.corruption.transfers_size_jittered);
  set("core.matched_jobs.exact", a.tri.exact.matched_job_count());
  set("core.matched_jobs.rm1", a.tri.rm1.matched_job_count());
  set("core.matched_jobs.rm2", a.tri.rm2.matched_job_count());
  set("obs.flows_total", r.flow_totals.flows);
  if (sinks == nullptr) return;
  const double events = static_cast<double>(sinks->log()->events_written());
  l["obs.events_written"] = events;
  set("obs.events_dropped", sinks->log()->dropped());
  std::error_code ec;
  l["obs.ndjson_bytes_per_event"] = ratio(
      static_cast<double>(fs::file_size(sinks->ndjson_path(), ec)), events);
  l["obs.colstore_bytes_per_event"] = ratio(
      static_cast<double>(fs::file_size(sinks->colstore_path(), ec)), events);
  set("obs.alerts_fired", sinks->health()->counts().fired);
}

Iteration Pipeline::run(std::uint64_t seed, LayerValues* layer, Kept* kept) {
  Iteration it;
  const unsigned sink_mask = opt_.workload.observed ? kAllSinks : kNoSinks;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point start = Clock::now();
    const Setup dry(opt_, seed, sink_mask, dir_);
    it.setup_samples.push_back(seconds_since(start));
  }

  double check_s = 0.0;  // check-only work, excluded from total_s
  const Clock::time_point start = Clock::now();
  std::optional<Setup> setup;
  it.setup_samples.push_back(
      timed("e2e/setup", "scenario",
            [&] { setup.emplace(opt_, seed, sink_mask, dir_); }));

  auto result = std::make_unique<scenario::ScenarioResult>();
  std::optional<CounterDeltas> deltas;
  if (layer != nullptr) deltas.emplace();
  it.campaign_s = timed("e2e/run_campaign", "scenario", [&] {
    *result = scenario::run_campaign(setup->config);
  });
  if (layer != nullptr) {
    deltas->stop();
    const CounterDeltas& d = *deltas;
    LayerValues& l = *layer;
    l["mem.rss_mb.after_campaign"] = rss_mib();
    l["sim.events_scheduled"] = d("pandarus_sim_events_scheduled_total");
    l["sim.events_fired"] = d("pandarus_sim_events_fired_total");
    l["sim.events_cancelled"] = d("pandarus_sim_events_cancelled_total");
    l["dms.link_rerates"] = d("pandarus_dms_link_rerates_total");
    l["dms.reschedules"] = d("pandarus_dms_transfer_reschedules_total");
  }
  if (setup->sinks != nullptr) {
    bool written = false;
    timed("e2e/sink_flush", "obs", [&] { written = setup->sinks->finish(); });
    checks_.expect(written, "sink files written");
  }
  // At paper scale a campaign need not drain: brokerage can pile
  // thousands of jobs, or a local-link backlog, onto a 4-5 slot site,
  // still queued when the fixed 3-day grace window ends.  What is left
  // is counted, not failed: a reference count (0 on every recorded seed),
  // a per-layer metric and a warning.
  const std::uint64_t unfinished =
      result->panda.submitted - result->panda.finished - result->panda.failed;
  if (!result->drained) {
    std::cerr << "pandarus-e2e: campaign seed " << seed
              << " did not drain within the grace window (" << unfinished
              << " jobs unfinished, " << result->transfers_in_flight
              << " transfers in flight)\n";
  }

  const Clock::time_point analysis_start = Clock::now();
  Analysis a = analyze(*result, layer);
  it.analysis_s = seconds_since(analysis_start);
  if (layer != nullptr) (*layer)["mem.rss_mb.after_analysis"] = rss_mib();

  {
    const Clock::time_point check_start = Clock::now();
    check_analysis(result->store, a);
    it.exact_local = a.comparison.transfers[0].local;
    it.exact_remote = a.comparison.transfers[0].remote;
    it.counts = store_counts(result->store);
    it.counts["jobs_unfinished"] = unfinished;
    it.counts["transfers_in_flight"] = result->transfers_in_flight;
    for (const auto& [name, value] : match_counts(result->store, a.tri)) {
      it.counts[name] = value;
    }
    check_s += seconds_since(check_start);
  }
  if (setup->sinks != nullptr) {
    report_recorded(*setup->sinks, it.counts, check_s);
  }
  it.total_s = seconds_since(start) - check_s;

  if (layer != nullptr) {
    record_layers(*result, a, setup->sinks.get(), unfinished, *layer);
  }
  if (kept != nullptr) {
    kept->result = std::move(result);
    kept->matcher = std::move(a.matcher);
  }
  return it;
}

Analysis Pipeline::analyze(const scenario::ScenarioResult& result,
                           LayerValues* layer) {
  const telemetry::MetadataStore& store = result.store;
  const grid::Topology& topology = result.topology;
  Analysis a;
  std::optional<CounterDeltas> deltas;
  if (layer != nullptr) deltas.emplace();
  timed("e2e/index", "core",
        [&] { a.matcher = std::make_unique<core::Matcher>(store); });
  timed("e2e/match.exact", "core",
        [&] { a.tri.exact = a.matcher->run(core::MatchOptions::exact()); });
  timed("e2e/match.rm1", "core",
        [&] { a.tri.rm1 = a.matcher->run(core::MatchOptions::rm1()); });
  timed("e2e/match.rm2", "core",
        [&] { a.tri.rm2 = a.matcher->run(core::MatchOptions::rm2()); });
  if (deltas) deltas->stop();
  timed("e2e/tables", "analysis", [&] {
    a.overall = analysis::overall_summary(store, a.tri.exact);
    a.activity = analysis::activity_breakdown(store, a.tri.exact);
    a.comparison = analysis::compare_methods(store, a.tri);
  });
  timed("e2e/heatmap", "analysis", [&] {
    const analysis::TransferHeatmap heatmap(store, topology);
    a.heatmap = heatmap.summary();
    a.top_cells = heatmap.top_cells(10).size();
  });
  timed("e2e/breakdown", "analysis", [&] {
    const auto exact_rows = analysis::build_breakdown(store, a.tri.exact);
    const analysis::BreakdownAggregates aggregates =
        analysis::aggregate(exact_rows);
    const auto rm1_rows = analysis::build_breakdown(store, a.tri.rm1);
    const auto top_local = analysis::top_by_queuing(
        rm1_rows, core::LocalityClass::kAllLocal, 0.10, 40);
    const auto top_remote = analysis::top_by_queuing(
        rm1_rows, core::LocalityClass::kAllRemote, 0.10, 40);
    const analysis::ThresholdSweep sweep = analysis::run_threshold_sweep(
        exact_rows, analysis::default_thresholds());
    a.breakdown_rows = exact_rows.size() + top_local.size() +
                       top_remote.size() + aggregates.zero_fraction_jobs;
    a.swept_jobs = sweep.total_jobs;
  });
  timed("e2e/casestudy", "analysis", [&] {
    const analysis::CaseStudyExtractor extractor(store, a.tri);
    if (const auto cs = extractor.sequential_staging_case()) {
      a.sequential_case = analysis::render_timeline(store, cs->match).size();
    }
    if (const auto cs = extractor.failed_spanning_case()) {
      a.failed_case = analysis::render_timeline(store, cs->match).size();
    }
    if (const auto cs = extractor.rm2_redundant_case()) {
      a.redundant_case =
          analysis::render_transfer_table(store, topology, cs->match).size();
    }
  });
  timed("e2e/report", "analysis", [&] {
    const fs::path path = dir_ / "report.txt";
    {
      std::ofstream os(path);
      analysis::write_campaign_report(os, store, topology, a.tri);
    }
    std::error_code ec;
    a.report_bytes = fs::file_size(path, ec);
  });
  if (deltas) {
    const CounterDeltas& d = *deltas;
    LayerValues& l = *layer;
    l["core.candidates_scanned"] = d("pandarus_match_candidates_scanned_total");
    l["core.candidates_accepted"] =
        d("pandarus_match_candidates_accepted_total");
    l["core.reject_taskid"] = d("pandarus_match_reject_taskid_total");
  }
  return a;
}

/// Whether an exact match qualifies for the Fig. 10 case: a successful
/// all-local job with >= 2 transfers, some of its queuing spent in them.
/// The extractor may fall back to RM1, so a case can exist without one.
bool has_sequential_candidate(const telemetry::MetadataStore& store,
                              const core::MatchResult& exact) {
  return std::any_of(
      exact.jobs.begin(), exact.jobs.end(), [&](const core::MatchedJob& m) {
        return m.transfer_indices.size() >= 2 &&
               m.locality() == core::LocalityClass::kAllLocal &&
               !store.jobs()[m.job_index].failed &&
               core::compute_metrics(store, m).queue_fraction() > 0.0;
      });
}

/// Whether an RM1 match qualifies for the Fig. 11 case: a failed job
/// whose transfers cross its start and overlap its wall clock.
bool has_failed_candidate(const telemetry::MetadataStore& store,
                          const core::MatchResult& rm1) {
  return std::any_of(
      rm1.jobs.begin(), rm1.jobs.end(), [&](const core::MatchedJob& m) {
        if (!store.jobs()[m.job_index].failed) return false;
        const core::JobTransferMetrics metrics = core::compute_metrics(store, m);
        return metrics.transfer_spans_execution &&
               metrics.transfer_time_in_wall > 0;
      });
}

/// Whether an RM2 match qualifies for the Fig. 12 case: an UNKNOWN
/// destination that can be inferred, and files moved more than once.
bool has_redundant_candidate(const telemetry::MetadataStore& store,
                             const core::MatchResult& rm2) {
  return std::any_of(
      rm2.jobs.begin(), rm2.jobs.end(), [&](const core::MatchedJob& m) {
        const bool unknown = std::any_of(
            m.transfer_indices.begin(), m.transfer_indices.end(),
            [&](std::size_t ti) {
              return store.transfers()[ti].destination_site ==
                     grid::kUnknownSite;
            });
        if (!unknown || core::infer_unknown_sites(store, m).empty()) {
          return false;
        }
        std::uint64_t waste = 0;
        for (const core::RedundantGroup& group :
             core::find_redundant_transfers(store, m)) {
          waste += group.wasted_bytes();
        }
        return waste > 0;
      });
}

void Pipeline::check_analysis(const telemetry::MetadataStore& store,
                              const Analysis& a) {
  const core::TriMatchResult& tri = a.tri;
  // Each method relaxes the one before it, so no campaign may match
  // fewer jobs under it; the strict shapes are checked over the run.
  checks_.expect(
      tri.exact.matched_job_count() <= tri.rm1.matched_job_count() &&
          tri.rm1.matched_job_count() <= tri.rm2.matched_job_count(),
      "exact <= RM1 <= RM2 matched jobs");
  checks_.expect(
      activity_rate(a.activity, dms::Activity::kAnalysisUpload) >
          activity_rate(a.activity, dms::Activity::kAnalysisDownload),
      "Analysis Upload matches at a higher rate than Download");
  checks_.expect(a.heatmap.local_fraction() > 0.5,
                 "local transfers carry most of the volume");
  checks_.expect(a.heatmap.mean_pair_bytes > a.heatmap.geomean_pair_bytes,
                 "site-pair mean above the geometric mean");
  checks_.expect(a.overall.matched_jobs == tri.exact.matched_job_count(),
                 "summary matched jobs equal the exact matcher's");
  checks_.expect(a.swept_jobs == tri.exact.matched_job_count(),
                 "threshold sweep covers every exact-matched job");
  checks_.expect(a.top_cells > 0 && a.breakdown_rows > 0,
                 "heatmap and breakdown are non-empty");
  // A short campaign may hold no job that qualifies for a case study, so
  // each case is checked against its own candidates: found whenever one
  // qualifies, and rendered non-empty when found.
  checks_.expect(!has_sequential_candidate(store, tri.exact) ||
                     a.sequential_case.has_value(),
                 "Fig. 10 case found when an exact match qualifies");
  checks_.expect(has_failed_candidate(store, tri.rm1) ==
                     a.failed_case.has_value(),
                 "Fig. 11 case found exactly when an RM1 match qualifies");
  checks_.expect(has_redundant_candidate(store, tri.rm2) ==
                     a.redundant_case.has_value(),
                 "Fig. 12 case found exactly when an RM2 match qualifies");
  checks_.expect(a.sequential_case.value_or(1) > 0 &&
                     a.failed_case.value_or(1) > 0 &&
                     a.redundant_case.value_or(1) > 0,
                 "every case study found renders non-empty");
  checks_.expect(a.report_bytes > 0, "text report written");
}

void Pipeline::check_pooled_shapes(const std::vector<Iteration>& iterations) {
  Counts jobs;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  for (const Iteration& it : iterations) {
    for (const char* name :
         {"matched_jobs.exact", "matched_jobs.rm1", "matched_jobs.rm2"}) {
      jobs[name] += it.counts.at(name);
    }
    local += it.exact_local;
    remote += it.exact_remote;
  }
  checks_.expect(jobs["matched_jobs.exact"] < jobs["matched_jobs.rm1"] &&
                     jobs["matched_jobs.rm1"] < jobs["matched_jobs.rm2"],
                 "exact < RM1 < RM2 matched jobs over the run");
  checks_.expect(local > remote,
                 "most exact-matched transfers are local over the run");
}

void Pipeline::report_recorded(const Sinks& sinks, const Counts& expected,
                               double& check_s) {
  std::size_t colstore_events = 0;
  struct Encoding {
    const char* name;
    const fs::path* path;
    const char* replay_span;
    const char* health_span;
    const char* html_span;
  };
  const Encoding encodings[] = {
      {"colstore", &sinks.colstore_path(), "e2e/replay.colstore",
       "e2e/health.colstore", "e2e/html.colstore"},
      {"ndjson", &sinks.ndjson_path(), "e2e/replay.ndjson",
       "e2e/health.ndjson", "e2e/html.ndjson"},
  };
  for (const Encoding& enc : encodings) {
    const std::string path = enc.path->string();
    const std::string label = std::string(enc.name) + " replay ";
    analysis::ReplayResult replay;
    timed(enc.replay_span, "analysis",
          [&] { replay = analysis::replay_events_file(path); });
    {
      const Clock::time_point check_start = Clock::now();
      Counts rebuilt = store_counts(replay.store);
      const core::Matcher matcher(replay.store);
      for (const auto& [name, value] : match_counts(
               replay.store, {matcher.run(core::MatchOptions::exact()),
                              matcher.run(core::MatchOptions::rm1()),
                              matcher.run(core::MatchOptions::rm2())})) {
        rebuilt[name] = value;
      }
      checks_.expect(std::all_of(rebuilt.begin(), rebuilt.end(),
                                 [&](const auto& kv) {
                                   return expected.at(kv.first) == kv.second;
                                 }),
                     label + "rebuilds the in-process counts");
      checks_.expect(replay.log_stats.present && replay.log_stats.dropped == 0,
                     label + "sees log_stats with dropped:0");
      if (enc.path == &sinks.colstore_path()) {
        colstore_events = replay.lines_parsed;
      }
      check_s += seconds_since(check_start);
    }
    std::unique_ptr<obs::HealthEngine> health;
    timed(enc.health_span, "analysis",
          [&] { health = analysis::derive_health_file(path); });
    std::uintmax_t html_bytes = 0;
    timed(enc.html_span, "analysis", [&] {
      const fs::path html = dir_ / (std::string(enc.name) + ".html");
      {
        std::ofstream os(html);
        analysis::HtmlReportOptions options;
        options.health = health.get();
        analysis::write_html_report(os, replay, options);
      }
      std::error_code ec;
      html_bytes = fs::file_size(html, ec);
    });
    checks_.expect(health != nullptr && html_bytes > 0,
                   std::string(enc.name) + " health and HTML report written");
  }

  analysis::MetricQuerySpec spec;
  spec.bucket_ms = util::hours(6);
  spec.group_by = {"kind"};
  analysis::MetricQueryResult query;
  timed("e2e/query", "analysis", [&] {
    const auto source =
        analysis::open_event_source(sinks.colstore_path().string());
    if (source != nullptr) query = analysis::run_metric_query(*source, spec);
  });

  const Clock::time_point check_start = Clock::now();
  std::uint64_t bucketed = 0;
  for (const analysis::MetricQueryRow& row : query.rows) bucketed += row.events;
  checks_.expect(query.source_error.empty() &&
                     query.events_scanned == colstore_events &&
                     query.events_matched == query.events_scanned &&
                     bucketed == query.events_matched,
                 "metric query counts every recorded event once");
  const std::optional<util::json::Value> stats =
      last_ndjson_event(sinks.ndjson_path());
  checks_.expect(stats && stats->get_string("kind") == "log_stats" &&
                     stats->get_int("dropped", -1) == 0 &&
                     stats->get_int("io_errors", -1) == 0,
                 "log_stats reports dropped:0 and io_errors:0");
  check_s += seconds_since(check_start);
}

// ------------------------------------------------------- traced ledger --

struct Span {
  std::string name;
  std::int64_t tid = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t arg = 0;
};

/// Wall-clock spans (pid 1, phase X) of a recorder.  to_chrome_json
/// writes one event per line; the simulated-time flow lanes are skipped
/// without being parsed.
std::vector<Span> wall_spans(const obs::TraceRecorder& recorder) {
  const std::string json = recorder.to_chrome_json();
  std::vector<Span> spans;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string_view line(json.data() + pos, end - pos);
    pos = end + 1;
    if (line.find("\"ph\": \"X\", \"pid\": 1,") == std::string_view::npos) {
      continue;
    }
    const std::size_t open = line.find('{');
    const std::size_t close = line.rfind('}');
    const auto event = util::json::parse(line.substr(open, close - open + 1));
    if (!event) continue;
    Span span;
    span.name = std::string(event->get_string("name"));
    span.tid = event->get_int("tid");
    span.start_us = event->get_int("ts");
    span.dur_us = event->get_int("dur");
    if (const util::json::Value* args = event->find("args")) {
      span.arg = args->get_int("v");
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< duration minus the time covered by children
};

std::map<std::string, SpanTotals> span_totals(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<std::int64_t> child_us(spans.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.tid == spans[i].tid &&
          spans[i].start_us < top.start_us + top.dur_us) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += spans[i].dur_us;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].dur_us) / 1000.0;
    t.self_ms += static_cast<double>(
                     std::max<std::int64_t>(0, spans[i].dur_us - child_us[i])) /
                 1000.0;
  }
  return totals;
}

/// Per-job Algorithm 1 latency over every job of the kept store.
void match_job_sweep(const Kept& kept, LayerValues& l) {
  const std::size_t jobs = kept.result->store.jobs().size();
  std::vector<double> us;
  us.reserve(jobs);
  const core::MatchOptions options = core::MatchOptions::exact();
  for (std::size_t j = 0; j < jobs; ++j) {
    const Clock::time_point start = Clock::now();
    const core::MatchedJob matched = kept.matcher->match_job(j, options);
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start)
                     .count());
  }
  std::sort(us.begin(), us.end());
  const auto rank = [&](double q) {
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(us.size())));
    return us.empty() ? 0.0 : us[std::clamp<std::size_t>(k, 1, us.size()) - 1];
  };
  l["core.match_job_us.p50"] = rank(0.5);
  l["core.match_job_us.p999"] = rank(0.999);
  l["core.match_job_us.samples"] = static_cast<double>(us.size());
}

/// observed-2d only: the 2-day campaign bare (before and after) and with
/// each sink alone; each sink's overhead is its run minus the bare mean.
void sink_overheads(const Options& opt, const fs::path& dir, LayerValues& l) {
  const auto campaign = [&](unsigned mask) {
    const Setup setup(opt, opt.seed, mask, dir);
    const Clock::time_point start = Clock::now();
    const scenario::ScenarioResult result =
        scenario::run_campaign(setup.config);
    if (setup.sinks != nullptr) setup.sinks->finish();
    return seconds_since(start);
  };
  const double bare_before = campaign(kNoSinks);
  const double ndjson = campaign(kNdjson);
  const double colstore = campaign(kColstore);
  const double flows = campaign(kFlows);
  const double alerts = campaign(kAlerts);
  const double bare = (bare_before + campaign(kNoSinks)) / 2.0;
  l["obs.sink_overhead_s.ndjson"] = ndjson - bare;
  l["obs.sink_overhead_s.colstore"] = colstore - bare;
  l["obs.sink_overhead_s.flows"] = flows - bare;
  l["obs.sink_overhead_s.alerts"] = alerts - bare;
}

/// Per-layer values read from the traced spans, and the ratios of the
/// counts the traced pipeline gathered.
void finish_layer_values(const std::map<std::string, SpanTotals>& totals,
                         const std::vector<Span>& spans, double days,
                         LayerValues& l) {
  const auto ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  l["scenario.setup_ms"] = ms("campaign/setup");
  l["scenario.simulate_ms"] = ms("campaign/simulate");
  l["scenario.post_process_ms"] = ms("campaign/post_process");
  // The last full day is the observation window's last; later days are
  // the drain grace period.
  const auto last_day = static_cast<std::int64_t>(std::ceil(days)) - 1;
  double first = 0.0;
  double last = 0.0;
  for (const Span& s : spans) {
    if (s.name != "campaign/day") continue;
    if (s.arg == 0) first = static_cast<double>(s.dur_us) / 1000.0;
    if (s.arg == last_day) last = static_cast<double>(s.dur_us) / 1000.0;
  }
  l["scenario.day_ms.first"] = first;
  l["scenario.day_ms.last"] = last;
  l["scenario.day_growth"] = ratio(last, first);
  l["sim.fired_per_s"] =
      ratio(l["sim.events_fired"], l["scenario.simulate_ms"] / 1000.0);
  l["sim.cancel_ratio"] =
      ratio(l["sim.events_cancelled"], l["sim.events_scheduled"]);
  l["dms.reschedules_per_rerate"] =
      ratio(l["dms.reschedules"], l["dms.link_rerates"]);
  l["core.accept_ratio"] =
      ratio(l["core.candidates_accepted"], l["core.candidates_scanned"]);
  l["core.index_build_ms"] = ms("e2e/index");
  l["core.match_ms.exact"] = ms("e2e/match.exact");
  l["core.match_ms.rm1"] = ms("e2e/match.rm1");
  l["core.match_ms.rm2"] = ms("e2e/match.rm2");
  l["analysis.tables_ms"] = ms("e2e/tables");
  l["analysis.heatmap_ms"] = ms("e2e/heatmap");
  l["analysis.breakdown_ms"] = ms("e2e/breakdown");
  l["analysis.casestudy_ms"] = ms("e2e/casestudy");
  l["analysis.report_ms"] = ms("e2e/report");
  l["analysis.replay_ms.colstore"] = ms("e2e/replay.colstore");
  l["analysis.replay_ms.ndjson"] = ms("e2e/replay.ndjson");
  l["analysis.health_replay_ms"] =
      ms("e2e/health.colstore") + ms("e2e/health.ndjson");
  l["analysis.html_ms"] = ms("e2e/html.colstore") + ms("e2e/html.ndjson");
  l["analysis.query_ms"] = ms("e2e/query");
  l["obs.flush_ms"] = ms("e2e/sink_flush");
}

// -------------------------------------------------------------- output --

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},   {"campaign_s", "s"}, {"analysis_s", "s"},
    {"total_s", "s"},   {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"scenario.setup_ms", "ms"},
    {"scenario.simulate_ms", "ms"},
    {"scenario.post_process_ms", "ms"},
    {"scenario.day_ms.first", "ms"},
    {"scenario.day_ms.last", "ms"},
    {"scenario.day_growth", "ratio"},
    {"sim.events_scheduled", "count"},
    {"sim.events_fired", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.cancel_ratio", "ratio"},
    {"sim.fired_per_s", "1/s"},
    {"dms.transfers_submitted", "count"},
    {"dms.transfers_completed", "count"},
    {"dms.transfers_failed", "count"},
    {"dms.transfers_in_flight", "count"},
    {"dms.retries", "count"},
    {"dms.link_rerates", "count"},
    {"dms.reschedules", "count"},
    {"dms.reschedules_per_rerate", "ratio"},
    {"dms.rule_passes", "count"},
    {"dms.rule_transfers", "count"},
    {"dms.tape_stages", "count"},
    {"dms.deletion_sweeps", "count"},
    {"dms.replicas_deleted", "count"},
    {"wms.jobs_submitted", "count"},
    {"wms.jobs_finished", "count"},
    {"wms.jobs_failed", "count"},
    {"wms.stage_in_transfers", "count"},
    {"wms.shared_stage_hits", "count"},
    {"wms.stage_timeouts", "count"},
    {"wms.jobs_unfinished", "count"},
    {"telemetry.jobs", "count"},
    {"telemetry.files", "count"},
    {"telemetry.transfers", "count"},
    {"telemetry.unknown_dst", "count"},
    {"telemetry.size_jittered", "count"},
    {"core.index_build_ms", "ms"},
    {"core.match_ms.exact", "ms"},
    {"core.match_ms.rm1", "ms"},
    {"core.match_ms.rm2", "ms"},
    {"core.candidates_scanned", "count"},
    {"core.candidates_accepted", "count"},
    {"core.accept_ratio", "ratio"},
    {"core.reject_taskid", "count"},
    {"core.match_job_us.p50", "us"},
    {"core.match_job_us.p999", "us"},
    {"core.match_job_us.samples", "count"},
    {"core.matched_jobs.exact", "count"},
    {"core.matched_jobs.rm1", "count"},
    {"core.matched_jobs.rm2", "count"},
    {"analysis.tables_ms", "ms"},
    {"analysis.heatmap_ms", "ms"},
    {"analysis.breakdown_ms", "ms"},
    {"analysis.casestudy_ms", "ms"},
    {"analysis.report_ms", "ms"},
    {"analysis.replay_ms.colstore", "ms"},
    {"analysis.replay_ms.ndjson", "ms"},
    {"analysis.health_replay_ms", "ms"},
    {"analysis.html_ms", "ms"},
    {"analysis.query_ms", "ms"},
    {"obs.events_written", "count"},
    {"obs.events_dropped", "count"},
    {"obs.ndjson_bytes_per_event", "B/event"},
    {"obs.colstore_bytes_per_event", "B/event"},
    {"obs.flush_ms", "ms"},
    {"obs.sink_overhead_s.ndjson", "s"},
    {"obs.sink_overhead_s.colstore", "s"},
    {"obs.sink_overhead_s.flows", "s"},
    {"obs.sink_overhead_s.alerts", "s"},
    {"obs.flows_total", "count"},
    {"obs.alerts_fired", "count"},
    {"mem.rss_mb.after_campaign", "MiB"},
    {"mem.rss_mb.after_analysis", "MiB"},
    {"trace.overhead_s", "s"},
    {"check_fail_ratio", "ratio"},
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

/// `defs` as a JSON metrics object; a metric the workload never reaches
/// (replay time on paper-8d, say) prints as 0.
template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], LayerValues& values) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    if (out.size() > 1) out += ", ";
    out += json_string(def.name) + ": {\"value\": " +
           json_number(values[def.name]) +
           ", \"unit\": " + json_string(def.unit) + "}";
  }
  return out + "}";
}

std::string counts_json(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": " + std::to_string(value);
  }
  return out + "}";
}

void write_ledger(const Options& opt, const std::string& metrics,
                  const std::map<std::string, SpanTotals>& totals) {
  std::ofstream os(opt.ledger);
  os << "{\"workload\": " << json_string(opt.workload.name)
     << ", \"seed\": " << opt.seed << ", \"metrics\": " << metrics
     << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    os << (first ? "\n  " : ",\n  ") << json_string(name)
       << ": {\"count\": " << t.count
       << ", \"total_ms\": " << json_number(t.total_ms)
       << ", \"self_ms\": " << json_number(t.self_ms) << "}";
    first = false;
  }
  os << "\n}}\n";
  if (!os) std::cerr << "pandarus-e2e: cannot write " << opt.ledger << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  clear_pandarus_env();
  const Options opt = parse_options(argc, argv);
  // Every file the run writes lives in one private directory, removed
  // at the end.
  std::error_code ec;
  fs::create_directories(opt.workdir, ec);
  std::string pattern = (opt.workdir / "e2e-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    std::cerr << "pandarus-e2e: cannot create a directory under "
              << opt.workdir << "\n";
    return 1;
  }
  const fs::path dir = pattern;

  Checks checks;
  Pipeline pipeline(opt, dir, checks);
  std::vector<Iteration> iterations;
  // Peak RSS is the first iteration's: later iterations inherit the
  // allocator state (raised mmap threshold, retained heap) of earlier ones,
  // which a user's single campaign never has.
  double peak_rss = 0.0;
  const Clock::time_point loop_start = Clock::now();
  do {
    iterations.push_back(
        pipeline.run(iteration_seed(opt.seed, iterations.size()), nullptr,
                     nullptr));
    if (iterations.size() == 1) peak_rss = peak_rss_mib();
  } while (seconds_since(loop_start) < opt.seconds);
  pipeline.check_pooled_shapes(iterations);
  const Counts& counts = iterations.front().counts;
  for (const auto& [name, value] : opt.expected) {
    const auto it = counts.find(name);
    checks.expect(it != counts.end() && it->second == value,
                  "reference " + name + " = " + std::to_string(value));
  }

  std::vector<double> setup;
  std::vector<double> campaign;
  std::vector<double> analysis;
  std::vector<double> total;
  for (const Iteration& it : iterations) {
    setup.insert(setup.end(), it.setup_samples.begin(), it.setup_samples.end());
    campaign.push_back(it.campaign_s);
    analysis.push_back(it.analysis_s);
    total.push_back(it.total_s);
  }

  LayerValues values;
  std::string metrics;
  if (!opt.trace) {
    values = {{"setup_s", median(setup)},
              {"campaign_s", median(campaign)},
              {"analysis_s", median(analysis)},
              {"total_s", median(total)},
              {"peak_rss_mb", peak_rss}};
    metrics = metrics_json(kEndToEnd, values);
  } else {
    // The untraced baseline for trace.overhead_s is the same seed run
    // again just before the traced pass: warm, and close in time.
    const Iteration untraced = pipeline.run(opt.seed, nullptr, nullptr);
    Kept kept;
    obs::TraceRecorder recorder;
    recorder.install();
    const Iteration traced = pipeline.run(opt.seed, &values, &kept);
    recorder.uninstall();
    checks.expect(untraced.counts == counts && traced.counts == counts,
                  "the seed's counts repeat untraced and traced");
    const std::vector<Span> spans = wall_spans(recorder);
    const std::map<std::string, SpanTotals> totals = span_totals(spans);
    finish_layer_values(totals, spans, opt.workload.days, values);
    values["trace.overhead_s"] = traced.total_s - untraced.total_s;
    match_job_sweep(kept, values);
    kept = Kept{};
    if (opt.workload.observed) sink_overheads(opt, dir, values);
    values["check_fail_ratio"] = ratio(static_cast<double>(checks.failed),
                                       static_cast<double>(checks.attempted));
    metrics = metrics_json(kPerLayer, values);
    if (!opt.ledger.empty()) write_ledger(opt, metrics, totals);
  }

  std::string failures = "[";
  for (const std::string& f : checks.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";
  std::string samples = "{\"seed\": [";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    samples += (i > 0 ? ", " : "") + std::to_string(iteration_seed(opt.seed, i));
  }
  const auto series = [&](const char* name, const std::vector<double>& v) {
    samples += std::string("], ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      samples += (i > 0 ? ", " : "") + json_number(v[i]);
    }
  };
  series("campaign_s", campaign);
  series("analysis_s", analysis);
  series("total_s", total);
  samples += "]}";
  fs::remove_all(dir, ec);

  std::cout << "{\"workload\": " << json_string(opt.workload.name)
            << ", \"seed\": " << opt.seed
            << ", \"iterations\": " << iterations.size()
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed
            << ", \"failures\": " << failures
            << ", \"counts\": " << counts_json(counts)
            << ", \"samples\": " << samples
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return 0;
}
