#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace pandarus::util {
namespace {

LogLevel level_from_env() noexcept {
  const char* env = std::getenv("PANDARUS_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarning;
  return parse_log_level(env, LogLevel::kWarning);
}

// Dynamic initialization runs before main() (single-threaded), so the
// environment override is in place before any log call.
std::atomic<LogLevel> g_level{level_from_env()};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarning: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?    ";
}

/// Wall-clock "HH:MM:SS.mmm" (UTC-agnostic: seconds within the day).
void append_timestamp(std::string& out) {
  using namespace std::chrono;
  const auto now = system_clock::now().time_since_epoch();
  const auto ms = duration_cast<milliseconds>(now).count();
  const auto in_day = ms % (24LL * 3600 * 1000);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02lld:%02lld:%02lld.%03lld",
                static_cast<long long>(in_day / 3'600'000),
                static_cast<long long>(in_day / 60'000 % 60),
                static_cast<long long>(in_day / 1000 % 60),
                static_cast<long long>(in_day % 1000));
  out += buf;
}

}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return g_level.load(std::memory_order_relaxed);
}

LogLevel parse_log_level(std::string_view name, LogLevel fallback) noexcept {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarning;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off") return LogLevel::kOff;
  return fallback;
}

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // The full line is assembled first and written with ONE fwrite: stdio
  // locks the stream per call, so concurrent workers (HTTP server threads,
  // obs drop warnings) can interleave whole lines but never fragments.
  std::string line;
  line.reserve(message.size() + 32);
  line += '[';
  append_timestamp(line);
  line += "] [";
  line += level_tag(level);
  line += "] ";
  line += message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace pandarus::util
