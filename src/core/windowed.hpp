// Windowed matching: the paper's time-window pre-selection (§4.2) as a
// filter over one shared MatchIndex.
//
// "Since all metadata are time-series data continuously generated by the
// real systems, we pre-selected the job set, file set, and transfer set
// within a common time window.  This reduces input size and avoids
// unnecessary searching overhead.  The selected period should be no
// shorter than the end-to-end lifetime of the jobs of interest."
//
// The campaign is sliced into fixed windows starting at the earliest job
// end time.  A job belongs to the window its end time falls in (the
// paper's query semantics: jobs *completed* inside the window) and sees
// only transfers that started at or after that window's start minus
// `lookback`; Algorithm 1's own "started before the job ended" test
// bounds the other side.  Each job runs through the given Matcher and
// its shared index, with that one extra lower bound on candidate start
// times.  With `lookback` at least the longest job lifetime the result
// is identical to a global run (tested as an invariant); shorter
// lookbacks drop old transfers.
#pragma once

#include "core/exact.hpp"

namespace pandarus::core {

class WindowedMatcher {
 public:
  struct Config {
    util::SimDuration window = util::days(2);
    /// How far before each window transfers are still considered.  Must
    /// cover the longest job lifetime for exact equivalence with global
    /// matching; shorter lookbacks trade recall for a narrower search.
    util::SimDuration lookback = util::days(2);
  };

  /// Shares `matcher`'s index; the matcher's store must outlive this.
  WindowedMatcher(const Matcher& matcher, Config config)
      : matcher_(matcher), config_(config) {}

  /// Runs the given method with each job restricted to its window; the
  /// result is ordered by job index, exactly like Matcher::run.
  [[nodiscard]] MatchResult run(const MatchOptions& options) const;

  /// Number of windows the store's job span covers.
  [[nodiscard]] std::size_t window_count() const;

 private:
  Matcher matcher_;
  Config config_;
};

}  // namespace pandarus::core
