#include "core/windowed.hpp"

#include <algorithm>

namespace pandarus::core {
namespace {

struct Span {
  util::SimTime lo = 0;
  util::SimTime hi = 0;  // exclusive
};

Span job_end_span(const telemetry::MetadataStore& store) {
  Span span{util::kNever, 0};
  for (const auto& j : store.jobs()) {
    span.lo = std::min(span.lo, j.end_time);
    span.hi = std::max(span.hi, j.end_time + 1);
  }
  if (span.lo == util::kNever) span = {0, 0};
  return span;
}

}  // namespace

std::size_t WindowedMatcher::window_count() const {
  const Span span = job_end_span(matcher_.store());
  if (span.hi <= span.lo || config_.window <= 0) return 0;
  return static_cast<std::size_t>(
      (span.hi - span.lo + config_.window - 1) / config_.window);
}

MatchResult WindowedMatcher::run(const MatchOptions& options) const {
  const auto jobs = matcher_.store().jobs();
  MatchResult out;
  out.method = options.method;
  out.jobs_considered = jobs.size();

  const Span span = job_end_span(matcher_.store());
  if (span.hi <= span.lo || config_.window <= 0) return out;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Start of the window [w0, w0 + window) holding the job's end time.
    const util::SimTime w0 =
        span.lo +
        (jobs[i].end_time - span.lo) / config_.window * config_.window;
    MatchedJob m = matcher_.match_job(i, options, w0 - config_.lookback);
    if (m.matched()) out.jobs.push_back(std::move(m));
  }
  return out;
}

}  // namespace pandarus::core
