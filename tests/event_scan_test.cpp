// Flat event record: obs::scan_ndjson_line against util::json::parse,
// and allocation gates for the steady-state event paths.
//
//   * Differential fuzz: real event lines of a small seeded campaign,
//     each put through a few seeded mutations (byte flips, insertions
//     and deletions, truncation, inserted escapes and \u sequences,
//     nested members, whitespace, int64-overflowing and exponent
//     numbers, duplicate keys).  The scanner must accept a line iff
//     util::json::parse yields an object, and then report the same
//     members in the same order with the same types, values and
//     accessor results.
//   * Allocation gates, counted by this binary's global operator new:
//     scanning escape-free recorded lines into one reused event, and
//     decoding colstore rows within a chunk, allocate nothing once warm.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "obs/colstore.hpp"
#include "obs/decoded_event.hpp"
#include "obs/event_log.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Out of line, so the compiler never pairs an inlined free() with a
// call site it knows as operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace pandarus {
namespace {

using FieldType = obs::DecodedEvent::FieldType;
using util::json::Value;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// A 0.25-day campaign's event stream, recorded once.
const obs::EventLog& campaign_log() {
  static const std::unique_ptr<obs::EventLog> log = [] {
    auto recorded = std::make_unique<obs::EventLog>();
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.days = 0.25;
    config.seed = 20250401;
    recorded->install();
    const scenario::ScenarioResult result = scenario::run_campaign(config);
    recorded->uninstall();
    recorded->close();
    EXPECT_TRUE(result.drained);
    return recorded;
  }();
  return *log;
}

std::vector<std::string> campaign_lines() {
  std::vector<std::string> lines;
  campaign_log().for_each_line(
      [&lines](std::string_view line) { lines.emplace_back(line); });
  return lines;
}

bool fits_int64(double v) {
  return std::isfinite(v) && v > -9.2e18 && v < 9.2e18;
}

/// Asserts that the scanned members are exactly the DOM object's.
void expect_same_members(const Value& dom, const obs::DecodedEvent& event,
                         const std::string& line) {
  ASSERT_EQ(dom.obj.size(), event.fields.size()) << line;
  for (std::size_t i = 0; i < dom.obj.size(); ++i) {
    const auto& [key, v] = dom.obj[i];
    const obs::DecodedEvent::Field& f = event.fields[i];
    ASSERT_EQ(key, f.key) << line;
    switch (v.kind) {
      case Value::Kind::kNumber:
        if (v.is_int) {
          ASSERT_EQ(f.type, FieldType::kInt) << line;
          EXPECT_EQ(f.int_v, v.int_v) << line;
        } else {
          ASSERT_EQ(f.type, FieldType::kDouble) << line;
          EXPECT_EQ(std::memcmp(&f.double_v, &v.num_v, sizeof(double)), 0)
              << line;
        }
        break;
      case Value::Kind::kBool:
        ASSERT_EQ(f.type, FieldType::kBool) << line;
        EXPECT_EQ(f.bool_v, v.bool_v) << line;
        break;
      case Value::Kind::kString:
        ASSERT_EQ(f.type, FieldType::kString) << line;
        EXPECT_EQ(f.string_v, v.str_v) << line;
        break;
      case Value::Kind::kNull:
        EXPECT_EQ(f.type, FieldType::kNull) << line;
        break;
      case Value::Kind::kArray:
      case Value::Kind::kObject:
        EXPECT_EQ(f.type, FieldType::kNested) << line;
        break;
    }
    // Keyed accessors, fallbacks and the first-duplicate-wins rule.
    const Value* first = dom.find(key);
    const bool int_safe = first->kind != Value::Kind::kNumber ||
                          first->is_int || fits_int64(first->num_v);
    if (int_safe) {
      EXPECT_EQ(event.get_int(key, -42), dom.get_int(key, -42)) << line;
    }
    const double got_d = event.get_double(key, -0.5);
    const double want_d = dom.get_double(key, -0.5);
    EXPECT_EQ(std::memcmp(&got_d, &want_d, sizeof(double)), 0) << line;
    EXPECT_EQ(event.get_bool(key, true), dom.get_bool(key, true)) << line;
    EXPECT_EQ(event.get_string(key, "fb"), dom.get_string(key, "fb")) << line;
  }
  EXPECT_EQ(event.get_int("no such key", 7), 7);
  EXPECT_EQ(event.find("no such key"), nullptr);
}

/// One seeded mutation of `line`, drawn from the shapes real damage
/// and hostile producers take.
void mutate(std::string& line, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n == 0 ? 1 : n));
  };
  const auto find_any = [&](std::string_view chars) -> std::size_t {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (chars.find(line[i]) != std::string_view::npos) at.push_back(i);
    }
    return at.empty() ? line.size() : at[pick(at.size())];
  };
  static constexpr std::string_view kEscapes[] = {
      "\\n", "\\\"", "\\\\", "\\/", "\\b\\f\\r\\t", "\\u00e9", "\\u20AC",
      "\\u0000", "\\uD83D\\uDE00", "\\u12", "\\uZZZZ", "\\x", "\\", "\\u"};
  static constexpr std::string_view kNested[] = {
      "[]", "{}", "[1,2,3]", "{\"a\":{\"b\":[true,null,\"s\\\"\"]}}",
      "[[[[-1.5e3]]]]", " [ 1 , { } ] ", "[1,]", "{\"a\"}", "{\"a\":}",
      "[\"unterminated]", "{\"a\":1,}", "[nul]", "{1:2}", "[{]", "[\"\\q\"]"};
  static constexpr std::string_view kNumbers[] = {
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "123456789012345678901234567890", "1e308",
      "1e309", "-1e-400", "1.5E+3", "2.5e-3", "0.1", "-0", "00012",
      "1.", ".5", "-", "1e", "1e+", "--1", "+1", "0x10", "1.7976931348623157e308",
      "4.9406564584124654e-324", "18446744073709551616"};
  static constexpr std::string_view kDuplicates[] = {
      "\"ts\":1.5,", "\"kind\":null,", "\"entity\":\"dup\",", "\"src\":true,",
      "\"ts\":-3,", "\"kind\":[\"x\"],", "\"size\":1e2,", "\"lfn\":\"a\\tb\","};
  static constexpr std::string_view kFlipBytes = "{}[]\":,\\-+.eE0159 tfnu\t\r\n\x01\x7f\xff";

  switch (pick(9)) {
    case 0: {  // byte flip
      if (line.empty()) return;
      const std::size_t at = pick(line.size());
      line[at] = (rng() & 1) != 0
                     ? kFlipBytes[pick(kFlipBytes.size())]
                     : static_cast<char>(static_cast<unsigned char>(rng()));
      break;
    }
    case 7:  // byte insertion
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(pick(line.size() + 1)),
                  kFlipBytes[pick(kFlipBytes.size())]);
      break;
    case 8: {  // span deletion, e.g. a value or a member's tail
      if (line.empty()) return;
      const std::size_t at = pick(line.size());
      line.erase(at, 1 + pick(8));
      break;
    }
    case 1:  // truncation
      line.resize(pick(line.size() + 1));
      break;
    case 2: {  // escape inside (most likely) a string
      const std::size_t quote = find_any("\"");
      const std::size_t at = quote < line.size() ? quote + 1 : pick(line.size() + 1);
      line.insert(std::min(at, line.size()), kEscapes[pick(std::size(kEscapes))]);
      break;
    }
    case 3: {  // nested member after '{' or ','
      const std::size_t at = find_any("{,");
      if (at >= line.size()) return;
      std::string member = "\"nest\":";
      member += kNested[pick(std::size(kNested))];
      member += ',';
      line.insert(at + 1, member);
      break;
    }
    case 4: {  // whitespace, legal and not
      static constexpr std::string_view kWs[] = {" ", "\t", "\r", "\n",
                                                 "  \r\n", "\v", "\f"};
      line.insert(pick(line.size() + 1), kWs[pick(std::size(kWs))]);
      break;
    }
    case 5: {  // replace a digit run with an edge-case number
      const std::size_t at = find_any("0123456789");
      if (at >= line.size()) return;
      std::size_t begin = at;
      std::size_t end = at;
      while (begin > 0 && std::isdigit(static_cast<unsigned char>(line[begin - 1])) != 0) {
        --begin;
      }
      while (end < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[end])) != 0) {
        ++end;
      }
      line.replace(begin, end - begin, kNumbers[pick(std::size(kNumbers))]);
      break;
    }
    default: {  // duplicate key after '{' or ','
      const std::size_t at = find_any("{,");
      if (at >= line.size()) return;
      line.insert(at + 1, kDuplicates[pick(std::size(kDuplicates))]);
      break;
    }
  }
}

TEST(EventScan, RecordedLinesMatchTheJsonParser) {
  const std::vector<std::string> lines = campaign_lines();
  ASSERT_GT(lines.size(), 1000u);
  obs::DecodedEvent event;
  for (const std::string& line : lines) {
    const auto dom = util::json::parse(line);
    ASSERT_TRUE(dom.has_value()) << line;
    ASSERT_TRUE(obs::scan_ndjson_line(line, event)) << line;
    expect_same_members(*dom, event, line);
    // Recorded lines start with the canonical envelope.
    ASSERT_GE(event.fields.size(), 3u);
    EXPECT_EQ(event.fields[0].key, "ts");
    EXPECT_EQ(event.fields[1].key, "kind");
    EXPECT_EQ(event.fields[2].key, "entity");
  }
}

TEST(EventScan, DifferentialFuzzAgainstJsonParser) {
  std::vector<std::string> seeds = campaign_lines();
  ASSERT_FALSE(seeds.empty());
  // Hand-made seeds for what a campaign stream rarely holds.
  seeds.emplace_back(
      R"({"ts":-5,"kind":"odd \"kind\"","entity":"e\u00e9\n","d":0.33333333333333331,"b":false,"z":null})");
  seeds.emplace_back(R"( { "ts" : 1 , "kind" : "k" , "entity" : 2 } )");
  seeds.emplace_back(R"({})");
  seeds.emplace_back(R"({"a":[1,{"b":"c"}],"a":2})");

  constexpr int kCases = 20000;
  std::mt19937_64 rng(0x5ca9'1e55);
  obs::DecodedEvent event;
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string line = seeds[static_cast<std::size_t>(rng() % seeds.size())];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) mutate(line, rng);

    const auto dom = util::json::parse(line);
    const bool dom_object = dom.has_value() && dom->kind == Value::Kind::kObject;
    const bool scanned = obs::scan_ndjson_line(line, event);
    ASSERT_EQ(scanned, dom_object) << "case " << i << ": " << line;
    if (scanned) {
      ++accepted;
      expect_same_members(*dom, event, line);
      if (::testing::Test::HasFailure()) FAIL() << "case " << i;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must be well exercised for the comparison to mean
  // anything.
  EXPECT_GT(accepted, kCases / 10);
  EXPECT_GT(rejected, kCases / 10);
}

TEST(EventScan, NestedMemberCarriesNoScalarAndIsRejectedByColWriter) {
  obs::DecodedEvent event;
  ASSERT_TRUE(obs::scan_ndjson_line(
      R"({"ts":1,"kind":"k","entity":2,"n":{"a":[1,2]},"x":3})", event));
  ASSERT_EQ(event.fields.size(), 5u);
  EXPECT_EQ(event.fields[3].type, FieldType::kNested);
  EXPECT_EQ(event.get_int("n", -7), -7);
  EXPECT_EQ(event.get_double("n", 2.5), 2.5);
  EXPECT_TRUE(event.get_bool("n", true));
  EXPECT_EQ(event.get_string("n", "fb"), "fb");
  EXPECT_EQ(event.get_int("x"), 3);

  const std::string path = "event_scan_nested.colstore";
  {
    obs::ColWriter writer(path);
    EXPECT_FALSE(writer.append(event));
    EXPECT_FALSE(writer.append_ndjson_line("{\"ts\":1,\"kind\":\"k\",\"entity\":2,"
                                           "\"a\":[]}"));
    EXPECT_TRUE(writer.append_ndjson_line("{\"ts\":1,\"kind\":\"k\",\"entity\":2}"));
    EXPECT_TRUE(writer.close());
    EXPECT_EQ(writer.stats().rejected, 2u);
    EXPECT_EQ(writer.stats().rows, 1u);
  }
  std::remove(path.c_str());
}

TEST(EventScan, EscapedStringsStayValidForTheWholeEvent) {
  obs::DecodedEvent event;
  // Several escaped strings in one line: each views the event's scratch,
  // which must not move while later strings are decoded.
  ASSERT_TRUE(obs::scan_ndjson_line(
      R"({"k\"ey":"a\"b","plain":"p","e":"\u00e9\u20ac\n","t":"x\\y"})",
      event));
  ASSERT_EQ(event.fields.size(), 4u);
  EXPECT_EQ(event.fields[0].key, "k\"ey");
  EXPECT_EQ(event.fields[0].string_v, "a\"b");
  EXPECT_EQ(event.get_string("plain"), "p");
  EXPECT_EQ(event.get_string("e"), "\xc3\xa9\xe2\x82\xac\n");
  EXPECT_EQ(event.get_string("t"), "x\\y");
}

TEST(EventScan, SteadyStateScanAllocatesNothing) {
  std::vector<std::string> lines;
  for (std::string& line : campaign_lines()) {
    if (line.find('\\') == std::string::npos) lines.push_back(std::move(line));
  }
  ASSERT_GT(lines.size(), 1000u);
  obs::DecodedEvent event;
  for (const std::string& line : lines) {
    ASSERT_TRUE(obs::scan_ndjson_line(line, event));  // warm
  }
  const std::uint64_t before = allocations();
  std::size_t scanned = 0;
  for (const std::string& line : lines) {
    if (obs::scan_ndjson_line(line, event)) ++scanned;
  }
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(scanned, lines.size());
  EXPECT_EQ(spent, 0u) << "allocations over " << lines.size() << " lines";
}

TEST(EventScan, ColstoreRowsDecodeWithoutAllocatingWithinAChunk) {
  const std::string path = "event_scan_rows.colstore";
  obs::ColWriterOptions options;
  options.rows_per_chunk = 4096;  // several chunks, so chunk loads vary
  ASSERT_TRUE(obs::write_colstore(campaign_log(), path, options));

  obs::ColReader reader(path);
  obs::DecodedEvent event;
  std::uint64_t rows_within_chunks = 0;
  std::uint64_t spent = 0;
  for (;;) {
    const std::uint64_t chunks_before = reader.stats().chunks_read;
    const std::uint64_t before = allocations();
    if (!reader.next(event)) break;
    const std::uint64_t cost = allocations() - before;
    if (reader.stats().chunks_read == chunks_before) {
      ++rows_within_chunks;
      spent += cost;
    }
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_GT(reader.stats().chunks_read, 1u);
  EXPECT_GT(rows_within_chunks, 1000u);
  EXPECT_EQ(spent, 0u) << "allocations over " << rows_within_chunks
                       << " rows";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pandarus
