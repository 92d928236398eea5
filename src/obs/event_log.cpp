#include "obs/event_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

/// The flush thread writes in blocks this size so the crash harness's
/// write-delay hook can stretch a flush across many kill opportunities.
constexpr std::size_t kFlushBlock = 4096;

/// write_ndjson() batches lines into blocks this size per fwrite.
constexpr std::size_t kWriteBlock = std::size_t{1} << 16;

using LineIter = std::vector<std::string>::const_iterator;

/// Appends lines [first, last) to `out` as NDJSON, reserving once.
void append_ndjson(std::string& out, LineIter first, LineIter last) {
  std::size_t total = 0;
  for (auto it = first; it != last; ++it) total += it->size() + 1;
  out.reserve(out.size() + total);
  for (auto it = first; it != last; ++it) {
    out += *it;
    out += '\n';
  }
}

}  // namespace

bool parse_fsync_policy(std::string_view spec, FsyncConfig& out) {
  if (spec == "off") {
    out = FsyncConfig{};
    return true;
  }
  if (spec == "flush") {
    out = FsyncConfig{FsyncPolicy::kFlush, 0};
    return true;
  }
  constexpr std::string_view kPrefix = "interval:";
  if (spec.substr(0, kPrefix.size()) == kPrefix) {
    const std::string_view ms = spec.substr(kPrefix.size());
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(ms.data(), ms.data() + ms.size(), value);
    if (ec == std::errc() && ptr == ms.data() + ms.size() && value > 0) {
      out = FsyncConfig{FsyncPolicy::kInterval, value};
      return true;
    }
  }
  return false;
}

void export_event_log_metrics() {
  EventLog* log = EventLog::installed();
  if (log == nullptr) return;
  Registry& registry = Registry::global();
  registry
      .gauge("pandarus_events_written",
             "Events accepted into the installed log")
      .set(static_cast<std::int64_t>(log->events_written()));
  registry
      .gauge("pandarus_events_dropped",
             "Events past the max_events bound (silently missing)")
      .set(static_cast<std::int64_t>(log->dropped()));
  registry
      .gauge("pandarus_events_bytes_written",
             "NDJSON bytes the accepted events serialize to")
      .set(static_cast<std::int64_t>(log->bytes_written()));
  registry
      .gauge("pandarus_events_io_errors",
             "Short writes / failed fsyncs seen by any sink path")
      .set(static_cast<std::int64_t>(log->io_errors()));
  registry
      .gauge("pandarus_events_fsyncs",
             "Successful fsyncs issued under the active policy")
      .set(static_cast<std::int64_t>(log->fsyncs()));
  registry
      .gauge("pandarus_events_watermark",
             "Publication watermark of the installed log")
      .set(static_cast<std::int64_t>(log->watermark()));
}

namespace detail {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

bool write_text_file(const std::string& path, std::string_view text,
                     std::string_view what) {
  const auto warn = [&path, what](std::string_view failure) {
    std::string message = "obs: ";
    message.append(failure).append(what).append(" output file ").append(path);
    util::log_line(util::LogLevel::kWarning, message);
  };
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    warn("cannot open ");
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) warn("write failed on ");
  return ok;
}

}  // namespace detail

namespace {
using detail::append_json_double;
using detail::append_json_escaped;
}  // namespace

// --- Event ------------------------------------------------------------------

Event::Event(std::string_view kind, std::int64_t ts, std::int64_t entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  line_ += std::to_string(ts);
  line_ += ",\"kind\":\"";
  append_json_escaped(line_, kind);
  line_ += "\",\"entity\":";
  line_ += std::to_string(entity);
}

Event::Event(std::string_view kind, std::int64_t ts, std::string_view entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  line_ += std::to_string(ts);
  line_ += ",\"kind\":\"";
  append_json_escaped(line_, kind);
  line_ += "\",\"entity\":\"";
  append_json_escaped(line_, entity);
  line_ += '"';
}

void Event::append_key(std::string_view key) {
  line_ += ",\"";
  append_json_escaped(line_, key);
  line_ += "\":";
}

Event&& Event::field(std::string_view key, std::int64_t v) && {
  append_key(key);
  line_ += std::to_string(v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::uint64_t v) && {
  append_key(key);
  line_ += std::to_string(v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::int32_t v) && {
  return std::move(*this).field(key, static_cast<std::int64_t>(v));
}

Event&& Event::field(std::string_view key, std::uint32_t v) && {
  return std::move(*this).field(key, static_cast<std::uint64_t>(v));
}

Event&& Event::field(std::string_view key, double v) && {
  append_key(key);
  append_json_double(line_, v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, bool v) && {
  append_key(key);
  line_ += v ? "true" : "false";
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::string_view v) && {
  append_key(key);
  line_ += '"';
  append_json_escaped(line_, v);
  line_ += '"';
  return std::move(*this);
}

Event&& Event::field(std::string_view key, const char* v) && {
  return std::move(*this).field(key, std::string_view(v));
}

// --- EventLog ---------------------------------------------------------------

std::atomic<EventLog*> EventLog::g_installed{nullptr};

EventLog::EventLog(std::size_t max_events) : max_events_(max_events) {}

EventLog::~EventLog() {
  stop_periodic_flush();
  uninstall();
}

void EventLog::install() noexcept {
  g_installed.store(this, std::memory_order_release);
}

void EventLog::uninstall() noexcept {
  EventLog* self = this;
  g_installed.compare_exchange_strong(self, nullptr,
                                      std::memory_order_acq_rel);
}

void EventLog::append(std::string line) {
  std::scoped_lock lock(mutex_);
  lines_.push_back(std::move(line));
  if (lines_.size() - watermark_ >= kPublishBatch) watermark_ = lines_.size();
}

void EventLog::emit(Event event) {
  if (accepted_.fetch_add(1, std::memory_order_relaxed) >= max_events_) {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (!warned_dropped_.exchange(true, std::memory_order_relaxed)) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: event log full, dropping events (raise "
                     "max_events)");
    }
    return;
  }
  event.line_ += '}';
  bytes_.fetch_add(event.line_.size() + 1, std::memory_order_relaxed);
  append(std::move(event.line_));
}

void EventLog::emit_sideband(Event event) {
  event.line_ += '}';
  append(std::move(event.line_));
}

std::uint64_t EventLog::publish() {
  std::scoped_lock lock(mutex_);
  watermark_ = lines_.size();
  return watermark_;
}

std::uint64_t EventLog::watermark() const {
  std::scoped_lock lock(mutex_);
  return watermark_;
}

std::uint64_t EventLog::snapshot_ndjson(std::string& out,
                                        std::uint64_t from_seq) const {
  std::scoped_lock lock(mutex_);
  if (from_seq >= watermark_) return watermark_;
  append_ndjson(out, lines_.begin() + static_cast<std::ptrdiff_t>(from_seq),
                lines_.begin() + static_cast<std::ptrdiff_t>(watermark_));
  return watermark_;
}

void EventLog::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Snapshot first: the stats line describes the stream before itself.
  const std::uint64_t events = events_written();
  const std::uint64_t drops = dropped();
  const std::uint64_t bytes = bytes_written();
  // The terminal line must survive max_events truncation (that is the
  // condition it exists to report), so it bypasses emit()'s bound and
  // goes straight into the stream.  io_errors/fsyncs make sink
  // trouble (full disk, failed fsync) visible in replay; both are 0 in
  // the default configuration, keeping byte-identity across runs.
  Event event = Event("log_stats", 0, std::int64_t{0})
                    .field("events", events)
                    .field("dropped", drops)
                    .field("bytes", bytes)
                    .field("io_errors", io_errors())
                    .field("fsyncs", fsyncs());
  event.line_ += '}';
  bytes_.fetch_add(event.line_.size() + 1, std::memory_order_relaxed);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  lines_.push_back(std::move(event.line_));
  // Emitters have quiesced (close's contract): publish the whole
  // stream so snapshot readers see it all.
  watermark_ = lines_.size();
}

std::size_t EventLog::event_count() const {
  std::scoped_lock lock(mutex_);
  return lines_.size();
}

std::string EventLog::to_ndjson() const {
  std::string out;
  std::scoped_lock lock(mutex_);
  append_ndjson(out, lines_.begin(), lines_.end());
  return out;
}

void EventLog::for_each_line(
    const std::function<void(std::string_view)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const std::string& line : lines_) fn(line);
}

bool EventLog::start_periodic_flush(const std::string& path,
                                    int interval_ms) {
  if (interval_ms <= 0) return false;
  std::scoped_lock lock(flush_mutex_);
  if (flush_thread_.joinable()) return false;  // already running
  flush_file_ = std::fopen(path.c_str(), "w");
  if (flush_file_ == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open event flush file " + path);
    return false;
  }
  flush_stop_ = false;
  flush_cursor_ = 0;
  flush_thread_ = std::thread([this, interval_ms] { flush_loop(interval_ms); });
  return true;
}

void EventLog::flush_once() {
  // flush_mutex_ held (serializes cursor/file against stop).
  std::string chunk;
  flush_cursor_ = snapshot_ndjson(chunk, flush_cursor_);
  if (chunk.empty()) return;
  // Blockwise so the crash harness's write-delay hook can hold the file
  // in a torn state between blocks; a plain run takes the loop in one
  // or a few full-size passes with no extra cost.
  std::size_t off = 0;
  while (off < chunk.size()) {
    const std::size_t want = std::min(chunk.size() - off, kFlushBlock);
    const std::size_t wrote =
        std::fwrite(chunk.data() + off, 1, want, flush_file_);
    if (wrote != want) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      if (!warned_io_error_.exchange(true, std::memory_order_relaxed)) {
        util::log_line(util::LogLevel::kWarning,
                       "obs: short write on event flush file");
      }
      // Skip the unwritable remainder but keep the cursor advanced:
      // the final write_ndjson() rewrites the full stream anyway, and
      // io_errors in log_stats records that this file is suspect.
      break;
    }
    off += wrote;
    if (flush_write_delay_us_ > 0) {
      std::fflush(flush_file_);
      std::this_thread::sleep_for(
          std::chrono::microseconds(flush_write_delay_us_));
    }
  }
  std::fflush(flush_file_);
  sync_flush_file_locked();
}

void EventLog::sync_flush_file_locked() {
  if (flush_file_ == nullptr) return;
  switch (fsync_.policy) {
    case FsyncPolicy::kOff:
      return;
    case FsyncPolicy::kFlush:
      break;
    case FsyncPolicy::kInterval: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_ <
          std::chrono::milliseconds(fsync_.interval_ms)) {
        return;
      }
      last_fsync_ = now;
      break;
    }
  }
  if (::fsync(fileno(flush_file_)) == 0) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!warned_io_error_.exchange(true, std::memory_order_relaxed)) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: fsync failed on event flush file");
    }
  }
}

void EventLog::flush_loop(int interval_ms) {
  std::unique_lock lock(flush_mutex_);
  while (!flush_stop_) {
    flush_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return flush_stop_; });
    flush_once();
  }
}

void EventLog::stop_periodic_flush() {
  {
    std::scoped_lock lock(flush_mutex_);
    if (!flush_thread_.joinable()) return;
    flush_stop_ = true;
  }
  flush_cv_.notify_all();
  flush_thread_.join();
  std::scoped_lock lock(flush_mutex_);
  flush_once();  // the thread's last pass may predate close()
  std::fclose(flush_file_);
  flush_file_ = nullptr;
}

bool EventLog::write_ndjson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open event log output file " + path);
    return false;
  }
  bool ok = true;
  {
    std::string block;
    block.reserve(kWriteBlock);
    const auto write_block = [&] {
      ok = ok && std::fwrite(block.data(), 1, block.size(), f) == block.size();
      block.clear();
    };
    std::scoped_lock lock(mutex_);
    for (const std::string& line : lines_) {
      block += line;
      block += '\n';
      if (block.size() >= kWriteBlock) write_block();
    }
    write_block();
  }
  ok = std::fflush(f) == 0 && ok;
  if (ok && fsync_.policy != FsyncPolicy::kOff) {
    if (::fsync(fileno(f)) == 0) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      util::log_line(util::LogLevel::kWarning,
                     "obs: fsync failed on event log output file " + path);
    }
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    util::log_line(util::LogLevel::kWarning,
                   "obs: write failed on event log output file " + path);
  }
  return ok;
}

}  // namespace pandarus::obs
