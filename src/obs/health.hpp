// Streaming health engine: deterministic anomaly detectors and SLO
// burn-rate evaluation over the campaign's own event/sampler streams.
//
// The engine is fed twice, through two faces of the same interface:
//
//   * live — instrumented sites (sampler rows, per-link probes, breaker
//     transitions, terminal transfer outcomes) call the typed on_*()
//     feeds directly, guarded by `HealthEngine::installed()` exactly
//     like EventLog emit sites;
//   * replay — analysis::derive_health() streams a recorded NDJSON or
//     colstore file through observe_json(), which maps the canonical
//     event vocabulary ("sample", "link_sample", "breaker_state",
//     "transfer_done"/"transfer_fail") onto the *same* typed feeds.
//
// Because both paths drive identical detector state in identical order,
// and every input carries simulated time only, the engine's
// status_json() is bit-identical between a live run and a replay of the
// stream that run produced.  That is the contract the /api/alerts
// parity gate checks.
//
// Detectors hold bounded state (EWMA scalars and fixed-width bucket
// rings), so memory is O(active links + detectors), never O(events).
// Alert lifecycle is pending → firing → resolved; every transition of
// the installed engine emits one typed `alert` NDJSON event through the
// installed EventLog, so stripping `alert` lines from a health-on
// stream restores the health-off bytes exactly.  Only the installed
// engine emits (alert events, Registry gauges): a detached engine —
// the one derive_health() builds — never re-emits a stream's own
// alerts.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/decoded_event.hpp"

namespace pandarus::obs {

enum class AlertPhase { kPending, kFiring, kResolved };
[[nodiscard]] std::string_view alert_phase_name(AlertPhase phase) noexcept;

/// One detector/entity alert, as surfaced by /api/alerts.
struct AlertState {
  std::string detector;
  std::string entity;    ///< e.g. "queue", "link:3->7"
  std::string severity;  ///< "warning" | "critical"
  AlertPhase phase = AlertPhase::kPending;
  std::int64_t first_ts = 0;  ///< when the pending phase began
  std::int64_t since_ts = 0;  ///< when the current phase began
  std::int64_t last_ts = 0;   ///< last observation that touched it
  double value = 0.0;         ///< most recent detector reading
  double threshold = 0.0;     ///< detector threshold at that reading
  std::uint32_t fire_count = 0;
};

/// One lifecycle transition, kept (bounded) for the report timeline.
struct AlertTransition {
  std::int64_t ts = 0;
  AlertPhase phase = AlertPhase::kPending;
  std::string detector;
  std::string entity;
  std::string severity;
  double value = 0.0;
  double threshold = 0.0;
};

/// One SLO objective's multi-window burn-rate snapshot.
struct SloStatus {
  std::string name;
  double target = 0.0;  ///< good-fraction objective, e.g. 0.95
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  double burn_fast = 0.0;  ///< bad_frac / error_budget over fast window
  double burn_slow = 0.0;
};

struct HealthConfig {
  // EWMA spike detection (queue depth, link utilization).
  double ewma_alpha = 0.2;
  double queue_z_threshold = 6.0;
  double queue_min_value = 64.0;  ///< absolute floor before z applies
  double link_util_floor = 0.92;  ///< utilization that always breaches
  double link_z_threshold = 4.0;
  // Lifecycle hysteresis (consecutive breaches / clears).
  int pending_ticks = 2;
  int clear_ticks = 2;
  // Transfer-stall window: terminal "stalled_terminal" failures.
  std::int64_t stall_window_ms = 2 * 3600 * 1000;
  std::uint64_t stall_threshold = 3;
  // Breaker flap escalation: open/close transitions per link.
  std::int64_t flap_window_ms = 6 * 3600 * 1000;
  std::uint64_t flap_threshold = 4;
  // SLO burn-rate evaluation.
  std::int64_t slo_bucket_ms = 5 * 60 * 1000;
  std::int64_t slo_fast_window_ms = 1 * 3600 * 1000;
  std::int64_t slo_slow_window_ms = 6 * 3600 * 1000;
  double slo_burn_threshold = 2.0;
  double transfer_latency_target = 0.95;      ///< fraction under bound
  std::int64_t transfer_latency_bound_ms = 4 * 3600 * 1000;
  double transfer_success_target = 0.90;
  double event_integrity_target = 0.999;      ///< fraction not dropped
  // Bounded histories.
  std::size_t max_transitions = 4096;
  std::size_t max_resolved = 512;
};

/// Fixed-width bucketed sliding-window counter: O(window/bucket) memory
/// regardless of event rate.  Monotone-time friendly; reset() on epoch
/// regression.
class BucketRing {
 public:
  BucketRing(std::int64_t bucket_ms, std::int64_t window_ms);
  void add(std::int64_t ts, std::uint64_t n = 1);
  /// Total count within [now - window, now]; expires old buckets.
  [[nodiscard]] std::uint64_t total(std::int64_t now);
  void reset();

 private:
  void expire(std::int64_t now);
  std::int64_t bucket_ms_;
  std::size_t capacity_;
  std::deque<std::pair<std::int64_t, std::uint64_t>> buckets_;
};

class HealthEngine {
 public:
  explicit HealthEngine(HealthConfig config = {});

  /// Makes this the process-wide engine the live feed sites report to.
  void install() noexcept;
  void uninstall() noexcept;
  [[nodiscard]] static HealthEngine* installed() noexcept {
    return g_installed.load(std::memory_order_acquire);
  }

  // --- typed feeds (live instrumentation sites) -----------------------------
  // All feeds are read-only observers of the simulation: they consume
  // no simulation RNG and schedule nothing, so an armed engine leaves
  // the non-alert event stream byte-identical.

  /// One sampler row (column names parallel to values).
  void on_sample(std::int64_t ts, const std::vector<std::string>& names,
                 const std::vector<std::int64_t>& values);
  /// One per-link load probe.
  void on_link_sample(std::int64_t ts, std::int64_t src, std::int64_t dst,
                      std::int64_t queued, double utilization);
  /// One terminal transfer outcome; `error` uses
  /// dms::transfer_error_name vocabulary ("none", "stalled_terminal",
  /// ...), passed as text because obs layers below dms.
  void on_transfer_terminal(std::int64_t ts, bool success,
                            std::string_view error,
                            std::int64_t duration_ms);
  /// One circuit-breaker state change.
  void on_breaker(std::int64_t ts, std::int64_t src, std::int64_t dst,
                  bool open);

  /// Canonical stream mapping: routes one recorded event (scanned
  /// NDJSON line or colstore row) onto the typed feeds above.  Unknown
  /// kinds — including `alert` itself — are ignored, so feeding a
  /// health-on stream cannot self-amplify.
  void observe_json(const DecodedEvent& event);

  // --- snapshots ------------------------------------------------------------

  struct Counts {
    std::uint64_t observations = 0;  ///< typed feed calls accepted
    std::uint64_t fired = 0;         ///< alerts that reached firing
    std::uint64_t resolved = 0;      ///< alerts that reached resolved
    std::uint64_t active_pending = 0;
    std::uint64_t active_firing = 0;
  };
  [[nodiscard]] Counts counts() const;

  /// Active (pending/firing) alerts sorted by (detector, entity), then
  /// resolved history in resolution order.
  [[nodiscard]] std::vector<AlertState> alerts() const;
  [[nodiscard]] std::vector<AlertTransition> transitions() const;
  [[nodiscard]] std::vector<SloStatus> slos() const;

  /// Deterministic JSON document {"counts":…,"alerts":…,"slos":…} — the
  /// /api/alerts body and the live-vs-replay parity artifact.  Contains
  /// no wall-clock, watermark, or pointer-derived content.
  [[nodiscard]] std::string status_json() const;

  [[nodiscard]] const HealthConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Lifecycle {
    AlertState state;
    int breach_streak = 0;
    int clear_streak = 0;
    bool active = false;  ///< pending or firing
  };

  /// Drives one detector/entity lifecycle step; mutex_ held.
  void step_locked(std::string_view detector, std::string_view entity,
                   std::string_view severity, std::int64_t ts, bool breach,
                   double value, double threshold, bool instant);
  void transition_locked(Lifecycle& lc, std::int64_t ts, AlertPhase phase);
  void evaluate_slos_locked(std::int64_t ts);
  void note_ts_locked(std::int64_t ts);
  void reset_locked();
  void export_gauges_locked();

  struct Ewma {
    bool primed = false;
    double mean = 0.0;
    double var = 0.0;
    void observe(double v, double alpha);
    [[nodiscard]] double zscore(double v) const;
  };

  struct LinkState {
    Ewma util;
    BucketRing flaps;
    bool breaker_open = false;
    explicit LinkState(const HealthConfig& c)
        : flaps(c.flap_window_ms / 8 > 0 ? c.flap_window_ms / 8 : 1,
                c.flap_window_ms) {}
  };

  struct Slo {
    std::string name;
    double target;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    BucketRing good_fast, bad_fast, good_slow, bad_slow;
    Slo(std::string n, double t, const HealthConfig& c)
        : name(std::move(n)),
          target(t),
          good_fast(c.slo_bucket_ms, c.slo_fast_window_ms),
          bad_fast(c.slo_bucket_ms, c.slo_fast_window_ms),
          good_slow(c.slo_bucket_ms, c.slo_slow_window_ms),
          bad_slow(c.slo_bucket_ms, c.slo_slow_window_ms) {}
    void add(std::int64_t ts, bool is_good, std::uint64_t n = 1);
    /// burn = bad_frac / (1 - target) over the window; 0 when empty.
    [[nodiscard]] double burn(std::int64_t now, bool fast);
  };

  static std::atomic<HealthEngine*> g_installed;

  const HealthConfig config_;

  mutable std::mutex mutex_;
  std::int64_t last_ts_ = INT64_MIN;
  std::uint64_t observations_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t resolved_count_ = 0;

  // Detector state.
  Ewma queue_depth_;
  std::map<std::pair<std::int64_t, std::int64_t>, LinkState> links_;
  BucketRing stalls_;
  std::int64_t prev_dropped_ = 0;  ///< events_dropped at the last sample

  // SLOs (fixed order: latency, success, integrity).
  std::vector<Slo> slos_;

  // Alert state.
  std::map<std::pair<std::string, std::string>, Lifecycle> active_;
  std::vector<AlertState> resolved_;
  std::vector<AlertTransition> transitions_;
};

}  // namespace pandarus::obs
