#include "core/exact.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pandarus::core {

using telemetry::JobRecord;
using telemetry::TransferRecord;

const char* match_outcome_name(MatchOutcome outcome) noexcept {
  switch (outcome) {
    case MatchOutcome::kNoFileRows: return "no file-table rows";
    case MatchOutcome::kNoCandidates: return "no candidate transfers";
    case MatchOutcome::kSizeGateFailed: return "size-sum gate failed";
    case MatchOutcome::kSiteCheckEliminatedAll:
      return "site check eliminated all";
    case MatchOutcome::kMatched: return "matched";
  }
  return "?";
}

Matcher::Matcher(const telemetry::MetadataStore& store)
    : index_(std::make_shared<const MatchIndex>(store)) {}

Matcher::Matcher(std::shared_ptr<const MatchIndex> index)
    : index_(std::move(index)) {}

namespace {

/// not_before for unwindowed queries: admits every start time.
constexpr util::SimTime kNoLowerBound =
    std::numeric_limits<util::SimTime>::min();

/// The Table-2-style coverage funnel, process-wide and cumulative over
/// every run/method.  Candidate-stage counters are filled by
/// collect_candidates (so diagnose_job contributes too); job-stage
/// counters only by match_job, from evaluate()'s outcome.  Hot loops
/// accumulate in plain locals and flush here once per job, so the
/// per-candidate cost is zero.
struct FunnelMetrics {
  obs::Counter& candidates_scanned = obs::Registry::global().counter(
      "pandarus_match_candidates_scanned_total",
      "Transfer candidates examined: transfers sharing a bridging file "
      "row's (lfn, jeditaskid)");
  obs::Counter& reject_attr_key = obs::Registry::global().counter(
      "pandarus_match_reject_attr_key_total",
      "Candidates rejected: composite attribute key mismatch");
  obs::Counter& reject_time = obs::Registry::global().counter(
      "pandarus_match_reject_time_total",
      "Candidates rejected: started after the job ended or before the "
      "window's lookback");
  obs::Counter& candidates_accepted = obs::Registry::global().counter(
      "pandarus_match_candidates_accepted_total",
      "Candidates surviving attribute and time filters");
  obs::Counter& reject_size_sum = obs::Registry::global().counter(
      "pandarus_match_reject_size_sum_total",
      "Jobs rejected: candidate size sum matched neither byte total");
  obs::Counter& reject_site = obs::Registry::global().counter(
      "pandarus_match_reject_site_total",
      "Candidates rejected: direction/site condition");
  obs::Counter& jobs_examined = obs::Registry::global().counter(
      "pandarus_match_jobs_examined_total", "Jobs run through Algorithm 1");
  obs::Counter& jobs_no_file_rows = obs::Registry::global().counter(
      "pandarus_match_jobs_no_file_rows_total",
      "Jobs with no bridging PanDA file rows");
  obs::Counter& jobs_no_candidates = obs::Registry::global().counter(
      "pandarus_match_jobs_no_candidates_total",
      "Jobs whose file rows matched no transfer");
  obs::Counter& jobs_site_eliminated = obs::Registry::global().counter(
      "pandarus_match_jobs_site_eliminated_total",
      "Jobs where the site check eliminated every candidate");
  obs::Counter& jobs_matched = obs::Registry::global().counter(
      "pandarus_match_jobs_matched_total", "Jobs linked to >= 1 transfer");
  obs::Counter& runs = obs::Registry::global().counter(
      "pandarus_match_runs_total", "Full Matcher::run passes");
  obs::Counter& run_wall_us = obs::Registry::global().counter(
      "pandarus_match_run_wall_us_total",
      "Wall-clock microseconds spent in Matcher::run");

  static FunnelMetrics& get() {
    static FunnelMetrics metrics;
    return metrics;
  }
};

/// Direction/site condition.  Under RM2 an UNKNOWN endpoint on the
/// relevant side is accepted (§4.3: such labels "may be incorrectly
/// recorded in the metadata while still corresponding to valid matches").
bool site_condition(const TransferRecord& t, const JobRecord& j,
                    bool relax_unknown) {
  if (t.is_download()) {
    return t.destination_site == j.computing_site ||
           (relax_unknown && t.destination_site == grid::kUnknownSite);
  }
  if (t.is_upload()) {
    return t.source_site == j.computing_site ||
           (relax_unknown && t.source_site == grid::kUnknownSite);
  }
  return false;
}

}  // namespace

const std::vector<std::size_t>& Matcher::collect_candidates(
    std::size_t job_index, util::SimTime not_before,
    std::size_t& file_rows) const {
  // Reused across jobs so the inner loop does no per-job allocate/free.
  // Per thread because the live /api/summary cache (LiveCache in
  // analysis/serve_endpoints.cpp) matches on the status server's HTTP
  // workers.
  thread_local std::vector<std::size_t> scratch;
  scratch.clear();

  const auto rows = index_->files_of_job(job_index);
  file_rows = rows.size();
  if (rows.empty()) return scratch;

  const JobRecord& job = index_->store().jobs()[job_index];
  const auto transfers = index_->store().transfers();

  // Candidate transfers: each file row of F'_j scans its (lfn,
  // jeditaskid) group, one integer compare checks the composite
  // attribute key, and the start time must fall in [not_before, job
  // end).  Funnel tallies stay in locals until the flush below.
  std::uint64_t scanned = 0;
  std::uint64_t rej_key = 0;
  std::uint64_t rej_time = 0;
  std::size_t contributing_rows = 0;
  for (const std::uint32_t fi : rows) {
    const std::uint64_t fkey = index_->file_key(fi);
    const auto group = index_->transfers_for_file(fi);
    scanned += group.size();
    const std::size_t before = scratch.size();
    for (const std::uint32_t ti : group) {
      if (index_->transfer_key(ti) != fkey) {
        ++rej_key;
        continue;
      }
      const util::SimTime started = transfers[ti].started_at;
      if (started >= job.end_time || started < not_before) {
        ++rej_time;
        continue;
      }
      scratch.push_back(ti);
    }
    contributing_rows += scratch.size() > before;
  }

  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.candidates_scanned.inc(scanned);
  if (rej_key > 0) funnel.reject_attr_key.inc(rej_key);
  if (rej_time > 0) funnel.reject_time.inc(rej_time);
  funnel.candidates_accepted.inc(scratch.size());

  // Each group is already ascending, so a single contributing row needs
  // no post-processing.  Multiple rows can interleave groups and — when
  // a job carries the same lfn as both input and output — duplicate a
  // transfer, so sort + dedup only then.
  if (contributing_rows > 1) {
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
  }
  return scratch;
}

MatchDiagnosis Matcher::evaluate(std::size_t job_index,
                                 const MatchOptions& options,
                                 util::SimTime not_before,
                                 MatchedJob* matched) const {
  const JobRecord& job = index_->store().jobs()[job_index];
  const auto transfers = index_->store().transfers();

  MatchDiagnosis diagnosis;
  const std::vector<std::size_t>& candidates =
      collect_candidates(job_index, not_before, diagnosis.file_rows);
  if (diagnosis.file_rows == 0) {
    diagnosis.outcome = MatchOutcome::kNoFileRows;
    return diagnosis;
  }
  diagnosis.candidates = candidates.size();
  if (candidates.empty()) {
    diagnosis.outcome = MatchOutcome::kNoCandidates;
    return diagnosis;
  }

  // Size-sum gate over the whole candidate set (exact method only).
  for (std::size_t ti : candidates) {
    diagnosis.candidate_sum += transfers[ti].file_size;
  }
  if (options.enforce_size_sum &&
      diagnosis.candidate_sum != job.ninputfilebytes &&
      diagnosis.candidate_sum != job.noutputfilebytes) {
    diagnosis.outcome = MatchOutcome::kSizeGateFailed;
    return diagnosis;
  }

  // Direction/site condition per transfer.
  for (std::size_t ti : candidates) {
    const TransferRecord& t = transfers[ti];
    if (!site_condition(t, job, options.relax_unknown_site)) continue;
    ++diagnosis.site_passing;
    if (matched == nullptr) continue;
    matched->transfer_indices.push_back(ti);
    if (t.is_local()) {
      ++matched->local_transfers;
    } else {
      ++matched->remote_transfers;
    }
  }
  diagnosis.outcome = diagnosis.site_passing > 0
                          ? MatchOutcome::kMatched
                          : MatchOutcome::kSiteCheckEliminatedAll;
  return diagnosis;
}

MatchedJob Matcher::match_job(std::size_t job_index,
                              const MatchOptions& options) const {
  return match_job(job_index, options, kNoLowerBound);
}

MatchedJob Matcher::match_job(std::size_t job_index,
                              const MatchOptions& options,
                              util::SimTime not_before) const {
  MatchedJob result;
  result.job_index = job_index;
  const MatchDiagnosis diagnosis =
      evaluate(job_index, options, not_before, &result);

  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.jobs_examined.inc();
  switch (diagnosis.outcome) {
    case MatchOutcome::kNoFileRows: funnel.jobs_no_file_rows.inc(); break;
    case MatchOutcome::kNoCandidates: funnel.jobs_no_candidates.inc(); break;
    case MatchOutcome::kSizeGateFailed: funnel.reject_size_sum.inc(); break;
    case MatchOutcome::kSiteCheckEliminatedAll:
      funnel.jobs_site_eliminated.inc();
      break;
    case MatchOutcome::kMatched: funnel.jobs_matched.inc(); break;
  }
  if (diagnosis.outcome >= MatchOutcome::kSiteCheckEliminatedAll &&
      diagnosis.candidates > diagnosis.site_passing) {
    funnel.reject_site.inc(diagnosis.candidates - diagnosis.site_passing);
  }
  return result;
}

MatchDiagnosis Matcher::diagnose_job(std::size_t job_index,
                                     const MatchOptions& options) const {
  return evaluate(job_index, options, kNoLowerBound, nullptr);
}

MatchResult Matcher::run(const MatchOptions& options) const {
  const obs::ScopedSpan span("match/run", "core",
                             static_cast<std::int64_t>(options.method));
  const std::int64_t t0 = obs::TraceRecorder::now_us();
  MatchResult out;
  out.method = options.method;
  out.jobs_considered = index_->store().jobs().size();
  for (std::size_t i = 0; i < out.jobs_considered; ++i) {
    MatchedJob m = match_job(i, options);
    if (m.matched()) out.jobs.push_back(std::move(m));
  }
  FunnelMetrics& funnel = FunnelMetrics::get();
  funnel.runs.inc();
  funnel.run_wall_us.inc(
      static_cast<std::uint64_t>(obs::TraceRecorder::now_us() - t0));
  return out;
}

}  // namespace pandarus::core
