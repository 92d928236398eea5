// Colstore correctness: byte-exact round trips, corrupt-chunk
// rejection, footer-index chunk skipping, NDJSON-vs-colstore replay
// and flow-rebuild parity on a recorded campaign, and the terminal
// log_stats event.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/critical_path.hpp"
#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"

namespace pandarus {
namespace {

/// Temp file in the test's working directory, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every field of two flow analyses, summaries in order included.
void expect_same_flows(const analysis::FlowAnalysis& a,
                       const analysis::FlowAnalysis& b) {
  EXPECT_EQ(a.totals.flows, b.totals.flows);
  EXPECT_EQ(a.totals.failed, b.totals.failed);
  EXPECT_EQ(a.totals.sequential_staging, b.totals.sequential_staging);
  EXPECT_EQ(a.totals.redundant_transfers, b.totals.redundant_transfers);
  EXPECT_EQ(a.totals.watchdog_releases, b.totals.watchdog_releases);
  EXPECT_EQ(a.totals.reroutes, b.totals.reroutes);
  ASSERT_EQ(a.link_ranking.size(), b.link_ranking.size());
  for (std::size_t i = 0; i < a.link_ranking.size(); ++i) {
    EXPECT_EQ(a.link_ranking[i].src, b.link_ranking[i].src);
    EXPECT_EQ(a.link_ranking[i].dst, b.link_ranking[i].dst);
    EXPECT_EQ(a.link_ranking[i].critical_ms, b.link_ranking[i].critical_ms);
    EXPECT_EQ(a.link_ranking[i].flows, b.link_ranking[i].flows);
  }
  EXPECT_EQ(a.collapsed, b.collapsed);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const obs::FlowSummary& x = a.flows[i];
    const obs::FlowSummary& y = b.flows[i];
    ASSERT_EQ(x.pandaid, y.pandaid);
    EXPECT_EQ(x.taskid, y.taskid);
    EXPECT_EQ(x.site, y.site);
    EXPECT_EQ(x.attempt, y.attempt);
    EXPECT_EQ(x.created_ms, y.created_ms);
    EXPECT_EQ(x.end_ms, y.end_ms);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.error, y.error);
    EXPECT_EQ(x.watchdog_release, y.watchdog_release);
    EXPECT_EQ(x.shared_hits, y.shared_hits);
    const obs::PhaseBreakdown& p = x.phases;
    const obs::PhaseBreakdown& q = y.phases;
    EXPECT_EQ(p.broker_ms, q.broker_ms);
    EXPECT_EQ(p.stage_in_ms, q.stage_in_ms);
    EXPECT_EQ(p.queue_ms, q.queue_ms);
    EXPECT_EQ(p.run_ms, q.run_ms);
    EXPECT_EQ(p.stage_out_ms, q.stage_out_ms);
    EXPECT_EQ(p.wall_ms, q.wall_ms);
    EXPECT_EQ(p.stage_in_serialized_ms, q.stage_in_serialized_ms);
    EXPECT_EQ(p.stage_in_busy_ms, q.stage_in_busy_ms);
    EXPECT_EQ(p.stage_in_overlap, q.stage_in_overlap);
    EXPECT_EQ(p.sequential_staging, q.sequential_staging);
    EXPECT_EQ(p.stage_in_transfers, q.stage_in_transfers);
    EXPECT_EQ(p.stage_in_attempts, q.stage_in_attempts);
    EXPECT_EQ(p.reroutes, q.reroutes);
    EXPECT_EQ(p.redundant_transfers, q.redundant_transfers);
    EXPECT_EQ(p.unregistered, q.unregistered);
    ASSERT_EQ(x.link_shares.size(), y.link_shares.size());
    for (std::size_t l = 0; l < x.link_shares.size(); ++l) {
      EXPECT_EQ(x.link_shares[l].src, y.link_shares[l].src);
      EXPECT_EQ(x.link_shares[l].dst, y.link_shares[l].dst);
      EXPECT_EQ(x.link_shares[l].ms, y.link_shares[l].ms);
    }
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Decodes a whole colstore file back to NDJSON text (one line per
/// event, '\n' after each), asserting the scan stayed healthy.
std::string decode_to_ndjson(const std::string& path,
                             obs::ColFilter filter = {}) {
  obs::ColReader reader(path, std::move(filter));
  obs::DecodedEvent event;
  std::string out;
  while (reader.next(event)) {
    obs::append_ndjson(event, out);
    out += '\n';
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return out;
}

/// Emits a mixed-shape, escape-heavy random stream; the same generator
/// seeds both sides of every comparison.
void emit_random_events(obs::EventLog& log, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string pool = "abz\"\\\n\t\x01 {}:,é";
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> shape(0, 4);
  std::uniform_int_distribution<std::int64_t> big(
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max());
  std::int64_t ts = 0;
  for (int i = 0; i < count; ++i) {
    ts += static_cast<std::int64_t>(rng() % 1000);
    std::string text;
    for (int c = 0; c < 8; ++c) text += pool[pick(rng)];
    switch (shape(rng)) {
      case 0:
        log.emit(obs::Event("transfer_start", ts, i)
                     .field("src", static_cast<std::int64_t>(rng() % 50))
                     .field("dst", static_cast<std::int64_t>(rng() % 50))
                     .field("attempt", std::int64_t{1}));
        break;
      case 1:
        log.emit(obs::Event("file_record", ts, i)
                     .field("lfn", text)
                     .field("size", static_cast<std::int64_t>(rng() % (1u << 30))));
        break;
      case 2:
        log.emit(obs::Event("link_sample", ts, std::int64_t{0})
                     .field("rate_bps", static_cast<double>(rng()) * 1.75e-3)
                     .field("utilization", 1.0 / 3.0));
        break;
      case 3:
        log.emit(obs::Event("odd \"kind\"", ts, std::string_view(text))
                     .field("flag", (rng() & 1) != 0)
                     .field("huge", big(rng))
                     .field("inf", std::numeric_limits<double>::infinity()));
        break;
      default:
        log.emit(obs::Event("bare", ts, -static_cast<std::int64_t>(i)));
        break;
    }
  }
}

TEST(ColstoreTest, RoundTripsRandomEventsByteExact) {
  obs::EventLog log;
  emit_random_events(log, 2000, 42);
  log.close();
  const std::string ndjson = log.to_ndjson();

  TempFile file("colstore_roundtrip.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 128;  // force many chunks
  ASSERT_TRUE(obs::write_colstore(log, file.path(), options));
  ASSERT_TRUE(obs::is_colstore_file(file.path()));

  EXPECT_EQ(decode_to_ndjson(file.path()), ndjson);

  std::string error;
  const auto stats = obs::colstore_stats(file.path(), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->events, 2001u);  // + terminal log_stats
  EXPECT_GT(stats->chunks, 10u);
  EXPECT_EQ(stats->kind_counts.at("bare") +
                stats->kind_counts.at("transfer_start") +
                stats->kind_counts.at("file_record") +
                stats->kind_counts.at("link_sample") +
                stats->kind_counts.at("odd \"kind\"") +
                stats->kind_counts.at("log_stats"),
            stats->events);
}

TEST(ColstoreTest, RejectsTruncatedAndCorruptChunks) {
  obs::EventLog log;
  emit_random_events(log, 1500, 7);
  TempFile file("colstore_corrupt.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 100;
  ASSERT_TRUE(obs::write_colstore(log, file.path(), options));
  const std::string bytes = read_file(file.path());
  ASSERT_GT(bytes.size(), 64u);

  {  // Truncation mid-chunk: rows before the damage still arrive.
    TempFile cut("colstore_truncated.colstore");
    write_file(cut.path(), bytes.substr(0, bytes.size() - 7));
    obs::ColReader reader(cut.path());
    obs::DecodedEvent event;
    std::uint64_t rows = 0;
    while (reader.next(event)) ++rows;
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.error().empty());
    EXPECT_GT(rows, 0u);
    EXPECT_LT(rows, 1500u);
  }
  {  // Bit damage in the last chunk's data section: CRC catches it.
    std::string flipped = bytes;
    for (std::size_t i = flipped.size() - 12; i < flipped.size() - 4; ++i) {
      flipped[i] = static_cast<char>(flipped[i] ^ 0x5A);
    }
    TempFile bad("colstore_flipped.colstore");
    write_file(bad.path(), flipped);
    obs::ColReader reader(bad.path());
    obs::DecodedEvent event;
    while (reader.next(event)) {
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.error().empty());
  }
  {  // Not a colstore file at all.
    TempFile txt("colstore_not.colstore");
    write_file(txt.path(), "{\"ts\":1}\n");
    EXPECT_FALSE(obs::is_colstore_file(txt.path()));
    obs::ColReader reader(txt.path());
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_FALSE(reader.ok());
  }
}

TEST(ColstoreTest, TimeWindowAndKindFiltersSkipChunksCorrectly) {
  obs::EventLog log;
  std::int64_t ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += 10;  // strictly increasing: chunks get disjoint windows
    if (i % 3 == 0) {
      log.emit(obs::Event("alpha", ts, i).field("site", std::int64_t{i % 7}));
    } else {
      log.emit(obs::Event("beta", ts, i).field("site", std::int64_t{i % 5}));
    }
  }
  TempFile file("colstore_skip.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 200;
  ASSERT_TRUE(obs::write_colstore(log, file.path(), options));

  const std::string full = log.to_ndjson();
  // Brute-force reference from the NDJSON text.
  const auto reference = [&full](auto&& keep) {
    std::string out;
    std::size_t start = 0;
    while (start < full.size()) {
      const std::size_t nl = full.find('\n', start);
      const std::string_view line(full.data() + start, nl - start);
      const auto v = util::json::parse(line);
      if (keep(*v)) {
        out += line;
        out += '\n';
      }
      start = nl + 1;
    }
    return out;
  };

  {  // Time window in the middle of the stream.
    obs::ColFilter filter;
    filter.ts_from = 10'000;
    filter.ts_to = 12'000;
    obs::ColReader reader(file.path(), filter);
    obs::DecodedEvent event;
    std::string got;
    while (reader.next(event)) {
      obs::append_ndjson(event, got);
      got += '\n';
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(got, reference([](const util::json::Value& v) {
                const std::int64_t t = v.get_int("ts");
                return t >= 10'000 && t <= 12'000;
              }));
    EXPECT_GT(reader.stats().chunks_skipped, 0u);
    EXPECT_LT(reader.stats().rows_decoded, 3000u);
  }
  {  // Kind filter: "alpha" rows only, every chunk holds some.
    obs::ColFilter filter;
    filter.kinds = {"alpha"};
    EXPECT_EQ(decode_to_ndjson(file.path(), filter),
              reference([](const util::json::Value& v) {
                return v.get_string("kind") == "alpha";
              }));
  }
  {  // Site filter on decoded rows.
    obs::ColFilter filter;
    filter.site = 3;
    EXPECT_EQ(decode_to_ndjson(file.path(), filter),
              reference([](const util::json::Value& v) {
                return v.get_int("site", -1) == 3;
              }));
  }
  {  // A kind that never occurs skips every chunk.
    obs::ColFilter filter;
    filter.kinds = {"gamma"};
    obs::ColReader reader(file.path(), filter);
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.stats().chunks_read, 0u);
    EXPECT_GT(reader.stats().chunks_skipped, 0u);
  }
}

TEST(ColstoreTest, CampaignReplayParityAndCompression) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  obs::EventLog log;
  obs::FlowTracker flows;  // the stream carries the flow vocabulary too
  log.install();
  flows.install();
  const auto live = scenario::run_campaign(config);
  flows.uninstall();
  log.uninstall();
  log.close();

  TempFile ndjson_file("colstore_campaign.ndjson");
  TempFile col_file("colstore_campaign.colstore");
  ASSERT_TRUE(log.write_ndjson(ndjson_file.path()));
  ASSERT_TRUE(obs::write_colstore(log, col_file.path()));

  // Byte parity: decoding the colstore re-renders the NDJSON exactly.
  EXPECT_EQ(decode_to_ndjson(col_file.path()), log.to_ndjson());

  // Replay parity through the sniffing open_event_source path.
  const auto from_text = analysis::replay_events_file(ndjson_file.path());
  const auto from_col = analysis::replay_events_file(col_file.path());
  ASSERT_GT(from_text.lines_parsed, 0u);
  EXPECT_EQ(from_text.lines_parsed, from_col.lines_parsed);
  EXPECT_EQ(from_text.lines_skipped, from_col.lines_skipped);
  EXPECT_EQ(from_text.kind_counts, from_col.kind_counts);
  EXPECT_EQ(from_text.samples.size(), from_col.samples.size());
  EXPECT_TRUE(from_col.log_stats.present);
  EXPECT_EQ(from_col.log_stats.dropped, 0u);

  const auto text_counts = from_text.store.counts();
  const auto col_counts = from_col.store.counts();
  EXPECT_EQ(text_counts.jobs, col_counts.jobs);
  EXPECT_EQ(text_counts.files, col_counts.files);
  EXPECT_EQ(text_counts.transfers, col_counts.transfers);
  EXPECT_EQ(text_counts.jobs, live.store.counts().jobs);

  // The rebuilt stores must match identically under all three methods.
  const core::Matcher text_matcher(from_text.store);
  const core::Matcher col_matcher(from_col.store);
  const auto text_tri = core::run_all_methods(text_matcher);
  const auto col_tri = core::run_all_methods(col_matcher);
  EXPECT_EQ(text_tri.exact.matched_job_count(),
            col_tri.exact.matched_job_count());
  EXPECT_EQ(text_tri.rm1.matched_job_count(),
            col_tri.rm1.matched_job_count());
  EXPECT_EQ(text_tri.rm2.matched_job_count(),
            col_tri.rm2.matched_job_count());
  EXPECT_EQ(text_tri.rm2.matched_transfer_count(),
            col_tri.rm2.matched_transfer_count());

  // Both encodings rebuild the same causal flows, field for field.
  const analysis::FlowAnalysis text_flows = analysis::rebuild_flows(from_text);
  const analysis::FlowAnalysis col_flows = analysis::rebuild_flows(from_col);
  ASSERT_GT(text_flows.flows.size(), 0u);
  EXPECT_EQ(text_flows.flows.size(), flows.completed().size());
  expect_same_flows(text_flows, col_flows);

  // Acceptance: the columnar file is at most 35% of the NDJSON bytes.
  const std::string ndjson_bytes = read_file(ndjson_file.path());
  const std::string col_bytes = read_file(col_file.path());
  ASSERT_GT(ndjson_bytes.size(), 0u);
  EXPECT_LE(static_cast<double>(col_bytes.size()),
            0.35 * static_cast<double>(ndjson_bytes.size()))
      << col_bytes.size() << " / " << ndjson_bytes.size();
}

TEST(ColstoreTest, LogStatsReportsTruncation) {
  obs::EventLog log(/*max_events=*/10);
  for (int i = 0; i < 50; ++i) {
    log.emit(obs::Event("tick", i, i));
  }
  log.close();
  log.close();  // idempotent
  EXPECT_EQ(log.event_count(), 11u);  // 10 kept + terminal log_stats
  EXPECT_EQ(log.dropped(), 40u);

  std::istringstream in(log.to_ndjson());
  const auto replay = analysis::replay_events(in);
  EXPECT_TRUE(replay.log_stats.present);
  EXPECT_EQ(replay.log_stats.events, 10u);
  EXPECT_EQ(replay.log_stats.dropped, 40u);
  EXPECT_GT(replay.log_stats.bytes, 0u);
}

TEST(ColstoreTest, NdjsonSourceBoundsLineLength) {
  std::string stream = "{\"ts\":1,\"kind\":\"a\",\"entity\":1}\n";
  stream += std::string(analysis::kMaxNdjsonLine + 100, 'x');  // no newline
  stream += "\n{\"ts\":2,\"kind\":\"b\",\"entity\":2}\n";
  std::istringstream in(stream);
  const auto source = analysis::make_ndjson_source(in);
  std::size_t events = 0;
  while (source->next() != nullptr) ++events;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(source->skipped(), 1u);
}

}  // namespace
}  // namespace pandarus
