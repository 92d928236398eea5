// Streaming event-source abstraction: one interface over the NDJSON
// text stream and the binary colstore, so replay / critical-path /
// report tooling runs out-of-core against either format.
//
// A source yields one flat obs::DecodedEvent at a time, refilled in
// place, so a scan builds no per-event object tree.  The NDJSON source
// assembles lines from fixed-size read chunks (bounded buffer — no
// whole-file slurp) and runs obs::scan_ndjson_line over each; the
// colstore source hands out obs::ColReader rows, which decode one chunk
// of columns at a time.  Both produce the same members in the same
// order with the same types (an event's `ts`, `kind` and `entity`
// first), so every consumer sees identical events regardless of the
// container format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/decoded_event.hpp"

namespace pandarus::analysis {

/// Longest NDJSON line a streaming source will assemble; longer lines
/// are discarded and counted as skipped (a corrupt line must not force
/// unbounded buffering).  The Event builder never comes close.
inline constexpr std::size_t kMaxNdjsonLine = std::size_t{1} << 20;

/// Pull cursor over an event stream.  The event returned by next() —
/// its members and every view they hold — stays valid until the
/// following next() call.
class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Next well-formed event object, or nullptr at end of stream.
  /// Malformed input is counted in skipped(), never fatal.
  virtual const obs::DecodedEvent* next() = 0;
  /// Lines/events dropped so far (unparsable, overlong, non-object).
  [[nodiscard]] virtual std::size_t skipped() const noexcept = 0;
  /// Non-empty when the underlying stream stopped on damage (e.g. a
  /// corrupt colstore chunk); end-of-input is not an error.
  [[nodiscard]] virtual std::string error() const = 0;
};

/// Line-streaming NDJSON source over an open stream (not owned; must
/// outlive the source).
std::unique_ptr<EventSource> make_ndjson_source(std::istream& in);

struct EventSourceOptions {
  /// Salvage mode for a damaged file (crash-truncated flush): a
  /// colstore source stops cleanly at the first torn or corrupt chunk
  /// instead of reporting an error, yielding the longest valid prefix;
  /// NDJSON sources already skip damage line by line.
  bool recover = false;
};

/// Opens `path` and sniffs the format: colstore magic selects the
/// columnar reader, anything else streams as NDJSON.  nullptr (with a
/// warning logged) when the file cannot be opened.
std::unique_ptr<EventSource> open_event_source(
    const std::string& path, const EventSourceOptions& options = {});

}  // namespace pandarus::analysis
