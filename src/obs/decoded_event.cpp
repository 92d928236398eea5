#include "obs/decoded_event.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/event_log.hpp"
#include "util/json.hpp"

namespace pandarus::obs {
namespace {

using FieldType = DecodedEvent::FieldType;
using Field = DecodedEvent::Field;

constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// strtod over a number token, exactly as util::json converts one.
double token_to_double(std::string_view token) {
  char buf[64];
  if (token.size() < sizeof buf) {
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  const std::string copy(token);
  return std::strtod(copy.c_str(), nullptr);
}

/// The util::json grammar restricted to a top-level object: members are
/// recorded flat, nested values are checked and skipped.  Each step
/// mirrors the corresponding util::json::Parser step, so both accept
/// and reject the same bytes.
class LineScanner {
 public:
  LineScanner(std::string_view text, DecodedEvent& out)
      : text_(text), out_(out) {}

  bool run() {
    out_.fields.clear();
    out_.scratch.clear();
    skip_ws();
    if (peek() != '{') return false;
    ++pos_;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        Field& f = out_.fields.emplace_back();
        if (!string(&f.key)) return false;
        skip_ws();
        if (peek() != ':') return false;
        ++pos_;
        skip_ws();
        if (!member_value(f)) return false;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        if (peek() == '}') {
          ++pos_;
          break;
        }
        return false;
      }
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool member_value(Field& f) {
    switch (peek()) {
      case '{':
      case '[':
        f.type = FieldType::kNested;
        return skip_nested();
      case '"':
        f.type = FieldType::kString;
        return string(&f.string_v);
      case 't':
        f.type = FieldType::kBool;
        f.bool_v = true;
        return literal("true");
      case 'f':
        f.type = FieldType::kBool;
        f.bool_v = false;
        return literal("false");
      case 'n':
        f.type = FieldType::kNull;
        return literal("null");
      default: return number(&f);
    }
  }

  /// Any non-container value, checked only.
  bool skip_scalar() {
    switch (peek()) {
      case '"': return string(nullptr);
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number(nullptr);
    }
  }

  /// `"key"` ws `:` ws inside a skipped object.
  bool skip_key() {
    if (!string(nullptr)) return false;
    skip_ws();
    if (peek() != ':') return false;
    ++pos_;
    skip_ws();
    return true;
  }

  /// Checks and skips one array/object value starting at pos_.
  /// Iterative (one closer byte per open level), so no input depth can
  /// exhaust the call stack.
  bool skip_nested() {
    std::string closers;
    for (;;) {
      const char open = peek();
      if (open == '{' || open == '[') {
        ++pos_;
        closers += open == '{' ? '}' : ']';
        skip_ws();
        if (peek() != closers.back()) {
          if (open == '{' && !skip_key()) return false;
          continue;  // first element
        }
        ++pos_;  // empty container
        closers.pop_back();
      } else if (!skip_scalar()) {
        return false;
      }
      // A value ended: close containers until one expects another element.
      for (;;) {
        if (closers.empty()) return true;
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          skip_ws();
          if (closers.back() == '}' && !skip_key()) return false;
          break;
        }
        if (peek() != closers.back()) return false;
        ++pos_;
        closers.pop_back();
      }
    }
  }

  /// Reads a string at pos_.  With `out`, the result views the line when
  /// it holds no escape, else the decoded copy in out_.scratch; without,
  /// the string is only checked.
  bool string(std::string_view* out) {
    if (peek() != '"') return false;
    const std::size_t start = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '"') {
      if (out != nullptr) *out = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    std::string* sink = nullptr;
    std::size_t begin = 0;
    if (out != nullptr) {
      // Decoded strings are never longer than their escaped text, so one
      // line-sized reservation keeps every view into scratch stable.
      sink = &out_.scratch;
      if (sink->capacity() < text_.size()) sink->reserve(text_.size());
      begin = sink->size();
      sink->append(text_.data() + start, pos_ - start);
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (!util::json::detail::decode_escape(text_, pos_, sink)) {
          return false;
        }
      } else {
        if (sink != nullptr) *sink += text_[pos_];
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    if (out != nullptr) *out = std::string_view(*sink).substr(begin);
    return true;
  }

  /// Number grammar of util::json; with `f`, the integer-then-double
  /// rule: an integral token that fits int64 is kInt (strtoll's value),
  /// anything else is kDouble via strtod on the same token.
  bool number(Field* f) {
    const std::size_t start = pos_;
    const bool negative = peek() == '-';
    if (negative) ++pos_;
    const std::size_t digits_start = pos_;
    std::uint64_t magnitude = 0;
    bool overflow = false;
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      overflow = overflow ||
                 __builtin_mul_overflow(magnitude, std::uint64_t{10},
                                        &magnitude) ||
                 __builtin_add_overflow(magnitude, digit, &magnitude);
      ++pos_;
    }
    if (pos_ == digits_start) return false;
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      if (!is_digit(peek())) return false;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!is_digit(peek())) return false;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (f == nullptr) return true;
    constexpr auto kMaxInt =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (integral && !overflow) {
      if (!negative && magnitude <= kMaxInt) {
        f->type = FieldType::kInt;
        f->int_v = static_cast<std::int64_t>(magnitude);
        return true;
      }
      if (negative && magnitude <= kMaxInt + 1) {
        f->type = FieldType::kInt;
        f->int_v = magnitude == kMaxInt + 1
                       ? std::numeric_limits<std::int64_t>::min()
                       : -static_cast<std::int64_t>(magnitude);
        return true;
      }
    }
    f->type = FieldType::kDouble;
    f->double_v = token_to_double(text_.substr(start, pos_ - start));
    return true;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  DecodedEvent& out_;
  std::size_t pos_ = 0;
};

}  // namespace

bool scan_ndjson_line(std::string_view line, DecodedEvent& out) {
  return LineScanner(line, out).run();
}

void append_ndjson(const DecodedEvent& event, std::string& out) {
  out += '{';
  bool first = true;
  for (const Field& f : event.fields) {
    if (!first) out += ',';
    first = false;
    out += '"';
    detail::append_json_escaped(out, f.key);
    out += "\":";
    switch (f.type) {
      case FieldType::kInt: out += std::to_string(f.int_v); break;
      case FieldType::kDouble: detail::append_json_double(out, f.double_v); break;
      case FieldType::kBool: out += f.bool_v ? "true" : "false"; break;
      case FieldType::kString:
        out += '"';
        detail::append_json_escaped(out, f.string_v);
        out += '"';
        break;
      case FieldType::kNull:
      case FieldType::kNested: out += "null"; break;
    }
  }
  out += '}';
}

}  // namespace pandarus::obs
