#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>

#include "obs/event_log.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

std::uint64_t next_recorder_id() noexcept {
  // Ids start at 1 so the thread-local cache's 0 means "no recorder".
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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

}  // namespace

std::atomic<TraceRecorder*> TraceRecorder::g_installed{nullptr};

TraceRecorder::TraceRecorder(std::size_t max_events_per_thread)
    : id_(next_recorder_id()),
      max_events_per_thread_(max_events_per_thread) {}

TraceRecorder::~TraceRecorder() { uninstall(); }

void TraceRecorder::install() noexcept {
  g_installed.store(this, std::memory_order_release);
}

void TraceRecorder::uninstall() noexcept {
  TraceRecorder* self = this;
  g_installed.compare_exchange_strong(self, nullptr,
                                      std::memory_order_acq_rel);
}

std::int64_t TraceRecorder::now_us() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  // Cache keyed on the recorder's process-unique id: a stale cache from
  // a destroyed recorder can never collide with a live one.
  static thread_local std::uint64_t t_owner_id = 0;
  static thread_local Buffer* t_buffer = nullptr;
  if (t_owner_id != id_) {
    std::scoped_lock lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    t_buffer = buffers_.back().get();
    t_owner_id = id_;
  }
  return *t_buffer;
}

void TraceRecorder::record(const char* name, const char* category,
                           std::int64_t start_us, std::int64_t dur_us,
                           std::int64_t arg) {
  record_event({name, category, start_us, dur_us, arg});
}

void TraceRecorder::record_event(const TraceEvent& event) {
  Buffer& buffer = local_buffer();
  if (buffer.events.size() >= max_events_per_thread_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (!warned_dropped_.exchange(true, std::memory_order_relaxed)) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: trace buffer full, dropping events (raise "
                     "max_events_per_thread)");
    }
    return;
  }
  buffer.events.push_back(event);
}

std::size_t TraceRecorder::event_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

std::string TraceRecorder::to_chrome_json() const {
  std::scoped_lock lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const TraceEvent& e : buffer->events) {
      out += first ? "\n" : ",\n";
      first = false;
      if (e.ph == 'M') {
        // Process-name metadata: labels the sim flow/transfer lanes in
        // Perfetto; e.name carries the label.
        out += R"({"name": "process_name", "ph": "M", "pid": )";
        out += std::to_string(e.pid);
        out += R"(, "tid": 0, "args": {"name": ")";
        append_escaped(out, e.name);
        out += "\"}}";
        continue;
      }
      const std::int64_t tid =
          e.tid == TraceEvent::kThreadTid ? buffer->tid : e.tid;
      out += R"({"name": ")";
      append_escaped(out, e.name);
      out += R"(", "cat": ")";
      append_escaped(out, e.category);
      out += R"(", "ph": ")";
      out += e.ph;
      out += R"(", "pid": )";
      out += std::to_string(e.pid);
      out += ", \"tid\": ";
      out += std::to_string(tid);
      out += ", \"ts\": " + std::to_string(e.start_us);
      if (e.ph == 'X') {
        out += ", \"dur\": " + std::to_string(e.dur_us);
      } else if (e.ph == 's' || e.ph == 'f') {
        out += ", \"id\": " + std::to_string(e.flow_id);
        // Bind the arrow tail to the enclosing slice so Perfetto draws
        // it even when the 'f' timestamp sits inside the target span.
        if (e.ph == 'f') out += R"(, "bp": "e")";
      }
      if (e.arg != kNoArg) {
        out += ", \"args\": {\"v\": " + std::to_string(e.arg) + "}";
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  return detail::write_text_file(path, to_chrome_json(), "trace");
}

}  // namespace pandarus::obs
