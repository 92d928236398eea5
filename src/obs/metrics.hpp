// Metrics core: a registry of named counters, gauges and histograms.
//
// The paper's thesis is observability applied to production data
// infrastructure; this is the same idea applied to the reproduction
// pipeline itself.  Design constraints, in order:
//
//  * hot-path increments must be wait-free — a Counter is one atomic
//    and inc() is one relaxed fetch_add (no lock);
//  * registration is rare and may lock — callers resolve a metric once
//    (by name, creating it on first use) and keep the returned
//    reference, whose address is stable for the registry's lifetime;
//  * snapshots are deterministic — metrics are exported sorted by name
//    so JSON/Prometheus dumps diff cleanly across runs.
//
// Naming convention: `pandarus_<subsystem>_<what>[_total]` (Prometheus
// style; `_total` marks monotonic counters).  See DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pandarus::obs {

/// Monotonic counter.  inc() is one relaxed atomic add; value() may lag
/// concurrent writers, which is fine for telemetry.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& help() const noexcept { return help_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string help);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  /// Registry::reset_for_test only.
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins signed gauge (queue depths, heap sizes, in-flight
/// totals).  set()/add() are single relaxed atomics.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& help() const noexcept { return help_; }

 private:
  friend class Registry;
  Gauge(std::string name, std::string help);
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  std::atomic<std::int64_t> v_{0};
};

/// Streaming quantile estimator for one fixed quantile `q` using the
/// P² (piecewise-parabolic) algorithm of Jain & Chlamtac (1985): five
/// markers track {min, q/2, q, (1+q)/2, max} in O(1) memory and O(1)
/// per observation.  Below five samples the estimate is exact (sorted
/// buffer with linear rank interpolation); with zero samples it is 0.
/// Not thread-safe on its own — Histogram serializes access.
class P2Quantile {
 public:
  explicit P2Quantile(double q) noexcept;

  void observe(double v) noexcept;
  [[nodiscard]] double estimate() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  void reset() noexcept;

 private:
  double q_;
  double h_[5] = {0, 0, 0, 0, 0};    ///< marker heights (raw samples while n_ < 5)
  double pos_[5] = {1, 2, 3, 4, 5};  ///< actual marker positions (1-based)
  double desired_[5] = {0, 0, 0, 0, 0};
  std::uint64_t n_ = 0;
};

/// Prometheus-style histogram: `bounds` are strictly increasing upper
/// bucket edges (a sample lands in the first bucket with value <=
/// bound; larger samples land in the implicit +Inf bucket).  Buckets
/// are plain atomics, like Counter.  Each histogram additionally feeds
/// three P² sketches (p50/p95/p99) behind a short spin lock; histograms
/// record per-task/per-job quantities, so the lock is cheap.
class Histogram {
 public:
  void observe(double v) noexcept;

  /// Streaming quantile estimate; `q` must be one of 0.5, 0.95, 0.99
  /// (the tracked sketches), anything else returns 0.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Non-cumulative count for bucket i; i == bounds().size() is +Inf.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& help() const noexcept { return help_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string help, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  void reset() noexcept;

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Quantile sketches share one spin lock: observe() is noexcept and
  // must not touch std::mutex (which may throw); contention is per-job.
  mutable std::atomic_flag sketch_lock_ = ATOMIC_FLAG_INIT;
  P2Quantile p50_{0.5};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

/// Point-in-time copy of every metric, sorted by name within each kind.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::string help;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::string help;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (+Inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;  ///< streaming P² estimates (exact below 5 samples)
    double p95 = 0.0;
    double p99 = 0.0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Counter value by exact name; 0 when absent (funnel printers don't
  /// want to care whether a stage ever fired).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Gauge value by exact name; 0 when absent.
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const noexcept;
};

/// Named-metric registry.  `global()` is the process-wide instance the
/// pipeline instruments into; tests construct private registries.
/// Lookup-or-create takes a mutex; returned references stay valid (and
/// lock-free to update) for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// `bounds` must be strictly increasing; it is fixed at first
  /// registration (later calls with the same name ignore it).
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = {});

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes the value of every registered metric while keeping the
  /// registrations (names, help, bucket bounds) and metric addresses
  /// stable, so cached references stay valid.  For tests that assert on
  /// process-global counters without depending on what earlier tests
  /// incremented; not safe concurrently with value()/snapshot() readers
  /// that expect monotonicity.
  void reset_for_test();

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

/// Renders a snapshot as a JSON object (counters/gauges/histograms maps).
[[nodiscard]] std::string export_json(const Snapshot& snapshot);
/// Renders a snapshot in Prometheus text exposition format.
[[nodiscard]] std::string export_prometheus(const Snapshot& snapshot);
/// Convenience: snapshot of the global registry.
[[nodiscard]] std::string export_json();
[[nodiscard]] std::string export_prometheus();

}  // namespace pandarus::obs
