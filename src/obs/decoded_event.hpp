// Flat event record: the one in-memory form of a recorded event on
// every stream path (colstore sink, NDJSON and colstore readers, replay,
// health replay, metric queries, salvage).
//
// Every event the obs::Event builder writes is one flat JSON object —
// `ts`, `kind`, `entity`, then scalar fields — so an event is an ordered
// list of (key, tagged scalar) members.  Keys and strings are views:
// into the scanned line, into the record's own scratch (for strings
// whose escapes had to be decoded), or into a colstore reader's
// dictionary.  Producers fill a caller-owned record in place, so a
// reused record reaches a steady state with no allocation per event.
//
// The accessors keep util::json::Value's semantics exactly: the first
// member with a key wins, numbers answer both as_int and as_double
// (a double truncates to int64 as Value's does), and a member of the
// wrong type — or a nested array/object, which carries no scalar —
// yields the caller's fallback.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pandarus::obs {

struct DecodedEvent {
  /// Member value type.  kInt..kNull double as the colstore's on-disk
  /// column type tags, so their numbering is part of the file format.
  enum class FieldType : std::uint8_t {
    kInt = 0,
    kDouble = 1,
    kBool = 2,
    kString = 3,
    kNull = 4,
    /// An array or object value: syntax-checked and skipped, no scalar.
    kNested = 5,
  };

  struct Field {
    std::string_view key;
    FieldType type = FieldType::kNull;
    bool bool_v = false;
    std::int64_t int_v = 0;
    double double_v = 0.0;
    std::string_view string_v;

    [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept {
      if (type == FieldType::kInt) return int_v;
      if (type == FieldType::kDouble) return static_cast<std::int64_t>(double_v);
      return fallback;
    }
    [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
      if (type == FieldType::kDouble) return double_v;
      if (type == FieldType::kInt) return static_cast<double>(int_v);
      return fallback;
    }
    [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
      return type == FieldType::kBool ? bool_v : fallback;
    }
    [[nodiscard]] std::string_view as_string(
        std::string_view fallback = {}) const noexcept {
      return type == FieldType::kString ? string_v : fallback;
    }
  };

  /// Members in source order (the canonical ts/kind/entity prefix
  /// first for every event the Event builder or a colstore emits).
  std::vector<Field> fields;
  /// Backing store for strings the NDJSON scanner had to unescape.
  /// Reserved to the line's length before the first such string, so
  /// views into it never move while one line is scanned.
  std::string scratch;

  /// First member with this key, or nullptr.
  [[nodiscard]] const Field* find(std::string_view key) const noexcept {
    for (const Field& f : fields) {
      if (f.key == key) return &f;
    }
    return nullptr;
  }

  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const noexcept {
    const Field* f = find(key);
    return f != nullptr ? f->as_int(fallback) : fallback;
  }
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback = 0.0) const noexcept {
    const Field* f = find(key);
    return f != nullptr ? f->as_double(fallback) : fallback;
  }
  [[nodiscard]] bool get_bool(std::string_view key,
                              bool fallback = false) const noexcept {
    const Field* f = find(key);
    return f != nullptr ? f->as_bool(fallback) : fallback;
  }
  [[nodiscard]] std::string_view get_string(
      std::string_view key, std::string_view fallback = {}) const noexcept {
    const Field* f = find(key);
    return f != nullptr ? f->as_string(fallback) : fallback;
  }
};

/// Single-pass NDJSON line scanner.  Accepts exactly the lines that
/// util::json::parse accepts as a JSON object (same grammar, same
/// whitespace, same integer-then-double number rule and conversion,
/// same \u decoding) and fills `out` with the object's members.  Keys
/// and strings view `line` unless they held escapes, in which case they
/// view out.scratch; either way they stay valid until `line` or `out`
/// is next modified.  On false `out` holds no meaningful members.
bool scan_ndjson_line(std::string_view line, DecodedEvent& out);

/// Renders the members as one NDJSON object, without a trailing
/// newline, in the obs::Event builder's encoding (same escaping, %.17g
/// doubles), so a colstore row re-renders the bytes it was recorded
/// from.  A kNested member, which carries no value, renders as null.
void append_ndjson(const DecodedEvent& event, std::string& out);

}  // namespace pandarus::obs
