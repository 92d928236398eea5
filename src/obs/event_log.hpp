// Structured event log: the durable, per-entity record stream the paper
// itself analyzes (its whole method runs off job/transfer records
// harvested into OpenSearch and reassembled offline).
//
// Events are typed NDJSON lines — one JSON object per line with `ts`
// (simulated milliseconds), `kind`, `entity`, and kind-specific fields —
// built with the Event builder and appended, under the log's mutex, to
// one vector of lines in emission order.  The whole stream is bounded
// by `max_events`; overflow is counted, never blocking.
//
// The disabled path follows the same cost discipline as ScopedSpan:
// when no EventLog is installed, an emit site is one relaxed-ish atomic
// load (EventLog::installed()) and nothing else — no clock reads, no
// string building.  Guard every emit site with
//
//   if (obs::EventLog* log = obs::EventLog::installed()) {
//     log->emit(obs::Event("transfer_submit", now, id)
//                   .field("src", src)
//                   .field("bytes", bytes));
//   }
//
// Events carry simulated time only, so two runs of the same seeded
// campaign produce byte-identical NDJSON whether or not a TraceRecorder
// (wall-clock tracing) is also installed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace pandarus::obs {

namespace detail {
/// JSON string escaping exactly as the Event builder renders it; shared
/// with the colstore re-renderer so both sinks produce identical bytes.
void append_json_escaped(std::string& out, std::string_view s);
/// Finite, round-trippable double rendering (%.17g; non-finite → 0).
void append_json_double(std::string& out, double v);
/// Writes `text` to `path`, replacing it; false (with a warning naming
/// `what`) when the open, the write, the flush or the close fails — a
/// full disk often shows only at fclose.  Shared by the plain one-shot
/// writers (metrics dump, Chrome trace, collapsed stacks, alerts).
bool write_text_file(const std::string& path, std::string_view text,
                     std::string_view what);
}  // namespace detail

/// Durability level for the file sinks (the PANDARUS_EVENTS_FSYNC
/// knob).  kOff is the default and leaves every existing byte-identity
/// guarantee untouched; kFlush fsyncs after each flush pass; kInterval
/// fsyncs at most once per `interval_ms` of wall time.
enum class FsyncPolicy { kOff, kFlush, kInterval };

struct FsyncConfig {
  FsyncPolicy policy = FsyncPolicy::kOff;
  int interval_ms = 0;  ///< kInterval only
};

/// Parses "off" | "flush" | "interval:<ms>" (case-sensitive); false on
/// a malformed spec, leaving `out` unchanged.
bool parse_fsync_policy(std::string_view spec, FsyncConfig& out);

/// Mirrors the installed log's durability counters (events written /
/// dropped / bytes, io_errors, fsyncs, watermark) into
/// `pandarus_events_*` registry gauges so /metrics scrapes and metric
/// dumps carry them; no-op without an installed log.  Gauges never
/// touch the event stream, so this is determinism-neutral.
void export_event_log_metrics();

/// Builder for one event line.  The constructor writes the common
/// prefix (`ts`, `kind`, `entity`); field() appends one key/value pair
/// per call.  Strings are JSON-escaped; doubles are rendered finite and
/// round-trippable (like the metrics exporters).
class Event {
 public:
  Event(std::string_view kind, std::int64_t ts, std::int64_t entity);
  Event(std::string_view kind, std::int64_t ts, std::string_view entity);

  Event&& field(std::string_view key, std::int64_t v) &&;
  Event&& field(std::string_view key, std::uint64_t v) &&;
  Event&& field(std::string_view key, std::int32_t v) &&;
  Event&& field(std::string_view key, std::uint32_t v) &&;
  Event&& field(std::string_view key, double v) &&;
  Event&& field(std::string_view key, bool v) &&;
  Event&& field(std::string_view key, std::string_view v) &&;
  Event&& field(std::string_view key, const char* v) &&;

 private:
  friend class EventLog;
  void append_key(std::string_view key);
  std::string line_;  ///< open JSON object; emit() appends the '}'
};

/// Collects events into one ordered stream; install at most one log at
/// a time.  Every emit appends under the log's mutex, so lines keep the
/// order they were emitted in.  The log must outlive every thread that
/// observed it as installed, and to_ndjson()/write_ndjson() hold the
/// complete stream only once emitters have quiesced.
class EventLog {
 public:
  /// `max_events` bounds the whole stream; events past the bound are
  /// counted as dropped (warned once).
  explicit EventLog(std::size_t max_events = std::size_t{1} << 22);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Makes this the process-wide log emit sites report to.
  void install() noexcept;
  /// Stops recording (no-op if another log was installed since).
  void uninstall() noexcept;
  [[nodiscard]] static EventLog* installed() noexcept {
    return g_installed.load(std::memory_order_acquire);
  }

  /// Finalizes the event's line and appends it to the stream; once
  /// kPublishBatch lines are unpublished, they publish themselves.
  void emit(Event event);

  /// Sideband emit: the line rides the stream (same ordering, same
  /// sinks) but bypasses the max_events bound and the accepted/bytes
  /// accounting, exactly like the terminal log_stats line.  Used for
  /// derived annotations (HealthEngine `alert` events) so a run with
  /// them armed keeps every self-describing counter — including the
  /// log_stats line itself — byte-identical to a run without.
  void emit_sideband(Event event);

  /// Finalizes the stream: appends one terminal `log_stats` event
  /// (events written, dropped, bytes — describing the stream *before*
  /// this line) so silent max_events truncation is visible in replay
  /// and reports.  The stats line bypasses the max_events bound.
  /// Also publishes the whole stream, so the watermark reaches its end.
  /// Idempotent; call once emitters have quiesced.
  void close();
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // --- snapshot isolation ---------------------------------------------------
  // Concurrent readers (obs::serve, the periodic flusher) read only the
  // *published prefix*: lines [0, watermark()) of the stream.  The
  // emitter publishes at quiescent points (the campaign loop publishes
  // at every simulated-day boundary and after the harvest), and every
  // kPublishBatch unpublished lines publish themselves.  A reader
  // holding a watermark therefore sees a consistent, gap-free prefix of
  // the stream at a known simulated time, and blocks an emitter for no
  // longer than its copy under the mutex.

  /// Publishes every line emitted so far and returns the new watermark.
  std::uint64_t publish();

  /// Number of published lines.  Lines below the watermark are
  /// immutable; snapshot readers key their memoization off this.
  [[nodiscard]] std::uint64_t watermark() const;

  /// Appends the published lines [from_seq, watermark()) to `out` as
  /// NDJSON in emission order and returns the watermark used as the
  /// exclusive bound.  Safe concurrently with emitters.  Pass the
  /// returned value back as `from_seq` to stream the log incrementally.
  std::uint64_t snapshot_ndjson(std::string& out,
                                std::uint64_t from_seq = 0) const;

  /// Starts a background thread appending newly published lines to
  /// `path` every `interval_ms` (the PANDARUS_EVENTS_FLUSH_MS knob), so
  /// `tail -f` and SSE consumers see events before close().  The file
  /// is truncated on start; only *published* lines are flushed, so the
  /// producer must publish() (or emit full batches) for data to
  /// appear.  Default-off: without this call nothing is written until
  /// the final write_ndjson().  False when the file cannot be opened or
  /// a flusher is already running.
  bool start_periodic_flush(const std::string& path, int interval_ms);
  /// Stops the flush thread after one final flush (call after close()
  /// and the file holds the complete stream).  Idempotent.
  void stop_periodic_flush();

  /// Sets the durability policy for the flush thread and
  /// write_ndjson().  Call before start_periodic_flush(); with kOff
  /// (the default) no fsync is ever issued.
  void set_fsync(FsyncConfig config) noexcept { fsync_ = config; }
  [[nodiscard]] FsyncConfig fsync_config() const noexcept { return fsync_; }

  /// Crash-injection hook (PANDARUS_EVENTS_WRITE_DELAY_US): the flush
  /// thread sleeps this long after every 4 KiB block it writes, holding
  /// the file in a torn, partially flushed state long enough for a
  /// SIGKILL to land mid-flush deterministically.  Zero disables.
  void set_flush_write_delay_us(int us) noexcept {
    flush_write_delay_us_ = us < 0 ? 0 : us;
  }

  /// Short writes and failed fsyncs observed by any sink path.  These
  /// are surfaced in the terminal log_stats line and by /healthz, so a
  /// full disk is visible in replay instead of silently truncating.
  [[nodiscard]] std::uint64_t io_errors() const noexcept {
    return io_errors_.load(std::memory_order_relaxed);
  }
  /// Successful fsync calls issued under the active FsyncPolicy.
  [[nodiscard]] std::uint64_t fsyncs() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events accepted into the stream so far (excludes dropped).
  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// NDJSON bytes the accepted events serialize to (incl. newlines).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// The full stream as NDJSON in emission order, '\n' after each line.
  [[nodiscard]] std::string to_ndjson() const;
  /// Streams the to_ndjson() bytes to `path`; false (with a warning
  /// logged and counted in io_errors()) when the open, a write, the
  /// flush or the close fails.
  bool write_ndjson(const std::string& path) const;

  /// Visits every line (without trailing '\n') in emission order under
  /// the log's lock — the streaming sibling of to_ndjson() used by the
  /// colstore sink.  Same quiescence contract.
  void for_each_line(
      const std::function<void(std::string_view)>& fn) const;

 private:
  /// Unpublished lines publish themselves in batches of this many.
  static constexpr std::size_t kPublishBatch = 1024;

  /// Appends one finished line, publishing once a full batch is
  /// unpublished.
  void append(std::string line);
  void flush_loop(int interval_ms);
  void flush_once();
  /// fsyncs flush_file_ per fsync_ policy; flush_mutex_ held.
  void sync_flush_file_locked();

  static std::atomic<EventLog*> g_installed;

  const std::size_t max_events_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bytes_{0};
  // mutable: write_ndjson() is logically const but must account I/O
  // failures it observes.
  mutable std::atomic<std::uint64_t> io_errors_{0};
  mutable std::atomic<std::uint64_t> fsyncs_{0};
  mutable std::atomic<bool> warned_io_error_{false};
  std::atomic<bool> warned_dropped_{false};
  std::atomic<bool> closed_{false};
  // The stream, guarded by mutex_: every line in emission order, of
  // which lines_[0, watermark_) are published.
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
  std::uint64_t watermark_ = 0;

  // Periodic flusher (PANDARUS_EVENTS_FLUSH_MS).
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  std::thread flush_thread_;
  std::FILE* flush_file_ = nullptr;
  std::uint64_t flush_cursor_ = 0;
  bool flush_stop_ = false;

  // Durability (PANDARUS_EVENTS_FSYNC) + crash-window hook.
  FsyncConfig fsync_;
  int flush_write_delay_us_ = 0;
  std::chrono::steady_clock::time_point last_fsync_{};
};

}  // namespace pandarus::obs
