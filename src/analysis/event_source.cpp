#include "analysis/event_source.hpp"

#include <cstdio>
#include <functional>
#include <istream>
#include <string_view>
#include <utility>

#include "obs/colstore.hpp"
#include "util/log.hpp"

namespace pandarus::analysis {
namespace {

/// Bytes pulled from the underlying stream per refill.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// Assembles NDJSON lines from fixed-size reads and scans them one at a
/// time straight out of the read buffer; memory is bounded by
/// kMaxNdjsonLine + kReadChunk no matter how large the input is.
class NdjsonSource final : public EventSource {
 public:
  using ReadFn = std::function<std::size_t(char*, std::size_t)>;

  NdjsonSource(ReadFn read, std::FILE* owned)
      : read_(std::move(read)), owned_(owned) {}
  ~NdjsonSource() override {
    if (owned_ != nullptr) std::fclose(owned_);
  }

  const obs::DecodedEvent* next() override {
    std::string_view line;
    while (next_line(line)) {
      if (line.empty()) continue;
      if (!obs::scan_ndjson_line(line, event_)) {
        ++skipped_;
        continue;
      }
      return &event_;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t skipped() const noexcept override {
    return skipped_;
  }
  [[nodiscard]] std::string error() const override { return {}; }

 private:
  /// Next line as a view into buffer_, valid until the following call
  /// (which is the only place buffer_ is compacted or refilled).
  bool next_line(std::string_view& line) {
    for (;;) {
      const auto nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        if (discarding_) {
          // Tail of an overlong line (already counted); resume after it.
          discarding_ = false;
          pos_ = nl + 1;
          continue;
        }
        line = std::string_view(buffer_).substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!discarding_ && buffer_.size() - pos_ > kMaxNdjsonLine) {
        ++skipped_;
        discarding_ = true;
      }
      if (discarding_) {
        buffer_.clear();
      } else {
        buffer_.erase(0, pos_);
      }
      pos_ = 0;
      if (eof_) {
        if (!discarding_ && !buffer_.empty()) {
          line = buffer_;  // final line without newline
          pos_ = buffer_.size();
          return true;
        }
        return false;
      }
      const std::size_t kept = buffer_.size();
      buffer_.resize(kept + kReadChunk);
      const std::size_t got = read_(buffer_.data() + kept, kReadChunk);
      buffer_.resize(kept + got);
      if (got == 0) eof_ = true;
    }
  }

  ReadFn read_;
  std::FILE* owned_ = nullptr;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool eof_ = false;
  bool discarding_ = false;
  std::size_t skipped_ = 0;
  obs::DecodedEvent event_;
};

/// Hands out colstore rows as decoded: ColReader::next already emits
/// the members (ts, kind, entity, then fields) that scanning the row's
/// NDJSON rendering would, so replay results are indistinguishable
/// across formats.
class ColstoreSource final : public EventSource {
 public:
  ColstoreSource(const std::string& path, bool recover)
      : reader_(path, obs::ColFilter{}, obs::ColReadOptions{recover}) {}

  const obs::DecodedEvent* next() override {
    if (reader_.next(event_)) return &event_;
    if (!reader_.ok() && !warned_) {
      warned_ = true;
      util::log_warning() << "event source: " << reader_.error();
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t skipped() const noexcept override {
    // A damaged chunk stops the scan; the rows lost are unknowable, so
    // the error() channel reports it instead of a count.
    return 0;
  }
  [[nodiscard]] std::string error() const override {
    return reader_.error();
  }

 private:
  obs::ColReader reader_;
  bool warned_ = false;
  obs::DecodedEvent event_;
};

}  // namespace

std::unique_ptr<EventSource> make_ndjson_source(std::istream& in) {
  return std::make_unique<NdjsonSource>(
      [&in](char* dst, std::size_t n) -> std::size_t {
        in.read(dst, static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in.gcount());
      },
      nullptr);
}

std::unique_ptr<EventSource> open_event_source(
    const std::string& path, const EventSourceOptions& options) {
  if (obs::is_colstore_file(path)) {
    return std::make_unique<ColstoreSource>(path, options.recover);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    util::log_warning() << "event source: cannot open " << path;
    return nullptr;
  }
  return std::make_unique<NdjsonSource>(
      [f](char* dst, std::size_t n) { return std::fread(dst, 1, n, f); }, f);
}

}  // namespace pandarus::analysis
