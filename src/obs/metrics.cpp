#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/event_log.hpp"

namespace pandarus::obs {
namespace {

template <typename T>
void sort_by_name(std::vector<T>& values) {
  std::sort(values.begin(), values.end(),
            [](const T& a, const T& b) { return a.name < b.name; });
}

}  // namespace

// --- Counter --------------------------------------------------------------

Counter::Counter(std::string name, std::string help)
    : name_(std::move(name)), help_(std::move(help)) {}

// --- Gauge ----------------------------------------------------------------

Gauge::Gauge(std::string name, std::string help)
    : name_(std::move(name)), help_(std::move(help)) {}

// --- P2Quantile -----------------------------------------------------------

P2Quantile::P2Quantile(double q) noexcept : q_(q) {}

void P2Quantile::reset() noexcept {
  for (std::size_t i = 0; i < 5; ++i) {
    h_[i] = 0.0;
    pos_[i] = static_cast<double>(i + 1);
    desired_[i] = 0.0;
  }
  n_ = 0;
}

void P2Quantile::observe(double v) noexcept {
  if (!std::isfinite(v)) return;
  if (n_ < 5) {
    h_[n_++] = v;
    if (n_ == 5) {
      std::sort(h_, h_ + 5);
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
    }
    return;
  }
  // Locate the cell k such that h_[k] <= v < h_[k + 1], extending the
  // extreme markers when v falls outside the current range.
  std::size_t k = 0;
  if (v < h_[0]) {
    h_[0] = v;
    k = 0;
  } else if (v >= h_[4]) {
    h_[4] = v;
    k = 3;
  } else {
    while (k < 3 && v >= h_[k + 1]) ++k;
  }
  ++n_;
  for (std::size_t i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  desired_[1] += q_ / 2.0;
  desired_[2] += q_;
  desired_[3] += (1.0 + q_) / 2.0;
  desired_[4] += 1.0;
  // Nudge the three interior markers toward their desired positions,
  // preferring the parabolic (P²) height update and falling back to
  // linear when the parabola would break marker monotonicity.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double parabolic =
          h_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + s) * (h_[i + 1] - h_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - s) * (h_[i] - h_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (h_[i - 1] < parabolic && parabolic < h_[i + 1]) {
        h_[i] = parabolic;
      } else {
        const std::size_t j = s > 0 ? i + 1 : i - 1;
        h_[i] = h_[i] + s * (h_[j] - h_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::estimate() const noexcept {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact path: sorted raw samples, linear interpolation at the
    // 0-based fractional rank q * (n - 1).
    double sorted[5];
    std::copy(h_, h_ + n_, sorted);
    std::sort(sorted, sorted + n_);
    const double rank = q_ * static_cast<double>(n_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = lo + 1 < n_ ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  return h_[2];
}

// --- Histogram ------------------------------------------------------------

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() +
                                                              1)) {}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto i = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop instead of atomic<double>::fetch_add for toolchain
  // portability; contention here is per-observation, not per-candidate.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  while (sketch_lock_.test_and_set(std::memory_order_acquire)) {
  }
  p50_.observe(v);
  p95_.observe(v);
  p99_.observe(v);
  sketch_lock_.clear(std::memory_order_release);
}

double Histogram::quantile(double q) const noexcept {
  while (sketch_lock_.test_and_set(std::memory_order_acquire)) {
  }
  double out = 0.0;
  if (q == 0.5) {
    out = p50_.estimate();
  } else if (q == 0.95) {
    out = p95_.estimate();
  } else if (q == 0.99) {
    out = p99_.estimate();
  }
  sketch_lock_.clear(std::memory_order_release);
  return out;
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  while (sketch_lock_.test_and_set(std::memory_order_acquire)) {
  }
  p50_.reset();
  p95_.reset();
  p99_.reset();
  sketch_lock_.clear(std::memory_order_release);
}

// --- Snapshot -------------------------------------------------------------

std::uint64_t Snapshot::counter_value(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t Snapshot::gauge_value(std::string_view name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

// --- Registry -------------------------------------------------------------

Registry& Registry::global() {
  // Leaked intentionally: instrumented code may run from atexit hooks
  // and static destructors, so the registry must never be torn down.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::scoped_lock lock(mutex_);
  const auto it = counter_index_.find(std::string(name));
  if (it != counter_index_.end()) return *counters_[it->second];
  counters_.push_back(std::unique_ptr<Counter>(
      new Counter(std::string(name), std::string(help))));
  counter_index_.emplace(std::string(name), counters_.size() - 1);
  return *counters_.back();
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::scoped_lock lock(mutex_);
  const auto it = gauge_index_.find(std::string(name));
  if (it != gauge_index_.end()) return *gauges_[it->second];
  gauges_.push_back(
      std::unique_ptr<Gauge>(new Gauge(std::string(name), std::string(help))));
  gauge_index_.emplace(std::string(name), gauges_.size() - 1);
  return *gauges_.back();
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds,
                               std::string_view help) {
  std::scoped_lock lock(mutex_);
  const auto it = histogram_index_.find(std::string(name));
  if (it != histogram_index_.end()) return *histograms_[it->second];
  histograms_.push_back(std::unique_ptr<Histogram>(new Histogram(
      std::string(name), std::string(help), std::move(bounds))));
  histogram_index_.emplace(std::string(name), histograms_.size() - 1);
  return *histograms_.back();
}

void Registry::reset_for_test() {
  std::scoped_lock lock(mutex_);
  for (const auto& c : counters_) c->reset();
  for (const auto& g : gauges_) g->reset();
  for (const auto& h : histograms_) h->reset();
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  {
    std::scoped_lock lock(mutex_);
    out.counters.reserve(counters_.size());
    for (const auto& c : counters_) {
      out.counters.push_back({c->name(), c->help(), c->value()});
    }
    out.gauges.reserve(gauges_.size());
    for (const auto& g : gauges_) {
      out.gauges.push_back({g->name(), g->help(), g->value()});
    }
    out.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      Snapshot::HistogramValue v;
      v.name = h->name();
      v.help = h->help();
      v.bounds = h->bounds();
      v.buckets.resize(v.bounds.size() + 1);
      for (std::size_t i = 0; i < v.buckets.size(); ++i) {
        v.buckets[i] = h->bucket(i);
      }
      v.count = h->count();
      v.sum = h->sum();
      v.p50 = h->quantile(0.5);
      v.p95 = h->quantile(0.95);
      v.p99 = h->quantile(0.99);
      out.histograms.push_back(std::move(v));
    }
  }
  sort_by_name(out.counters);
  sort_by_name(out.gauges);
  sort_by_name(out.histograms);
  return out;
}

// --- Exporters ------------------------------------------------------------

std::string export_json(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  // Opens one `"name": ` entry of the current map.
  const auto key = [&out, &first](const std::string& name) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    detail::append_json_escaped(out, name);
    out += "\": ";
  };
  const auto number = [&out](const char* label, double v) {
    out += label;
    detail::append_json_double(out, v);
  };
  for (const auto& c : snapshot.counters) {
    key(c.name);
    out += std::to_string(c.value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    key(g.name);
    out += std::to_string(g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    key(h.name);
    out += "{\"buckets\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      number(i > 0 ? ", [" : "[", h.bounds[i]);
      out += ", ";
      out += std::to_string(h.buckets[i]);
      out += ']';
    }
    out += "], \"overflow\": " + std::to_string(h.buckets.back()) +
           ", \"count\": " + std::to_string(h.count);
    number(", \"sum\": ", h.sum);
    number(", \"p50\": ", h.p50);
    number(", \"p95\": ", h.p95);
    number(", \"p99\": ", h.p99);
    out += '}';
  }
  out += "\n  }\n}\n";
  return out;
}

std::string export_prometheus(const Snapshot& snapshot) {
  // Exposition-format rules enforced here: a *family* is the metric
  // name up to the first '{' (labelled metrics like
  // pandarus_build_info{version="..."} register one gauge per label
  // set, all in the same family), and every family gets exactly one
  // # HELP and one # TYPE line, emitted before its first sample.
  // Snapshots are sorted by name, so samples of one family are
  // contiguous and a seen-set is enough to dedupe.
  std::string out;
  std::vector<std::string> seen;
  const auto header = [&out, &seen](const std::string& name,
                                    const std::string& help,
                                    const char* type) {
    const std::string family = name.substr(0, name.find('{'));
    if (std::find(seen.begin(), seen.end(), family) != seen.end()) return;
    seen.push_back(family);
    out += "# HELP " + family;
    if (!help.empty()) {
      out += ' ';
      // HELP docstrings escape backslash and newline per the format.
      for (const char c : help) {
        if (c == '\\') {
          out += "\\\\";
        } else if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
    }
    out += "\n# TYPE " + family + " " + std::string(type) + "\n";
  };
  for (const auto& c : snapshot.counters) {
    header(c.name, c.help, "counter");
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    header(g.name, g.help, "gauge");
    out += g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    header(h.name, h.help, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += h.name;
      out += "_bucket{le=\"";
      detail::append_json_double(out, h.bounds[i]);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    cumulative += h.buckets.back();
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
           "\n";
    out += h.name;
    out += "_sum ";
    detail::append_json_double(out, h.sum);
    out += '\n';
    out += h.name + "_count " + std::to_string(h.count) + "\n";
    // Streaming quantile estimates ride along as separate gauge
    // families: a `{quantile=...}` label on the histogram family name
    // itself would collide with the histogram TYPE declaration under
    // strict exposition-format parsers.
    const auto quantile = [&](const char* suffix, double value) {
      header(h.name + suffix, "P2 streaming quantile of " + h.name, "gauge");
      out += h.name;
      out += suffix;
      out += ' ';
      detail::append_json_double(out, value);
      out += '\n';
    };
    quantile("_p50", h.p50);
    quantile("_p95", h.p95);
    quantile("_p99", h.p99);
  }
  return out;
}

std::string export_json() { return export_json(Registry::global().snapshot()); }

std::string export_prometheus() {
  return export_prometheus(Registry::global().snapshot());
}

}  // namespace pandarus::obs
