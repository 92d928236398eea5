#include "analysis/events_replay.hpp"

#include <istream>
#include <string>

#include "analysis/event_source.hpp"
#include "util/log.hpp"

namespace pandarus::analysis {
namespace {

grid::SiteId site_of(const obs::DecodedEvent& v, std::string_view key) {
  return static_cast<grid::SiteId>(
      v.get_int(key, static_cast<std::int64_t>(grid::kUnknownSite)));
}

void replay_job_record(const obs::DecodedEvent& v, std::int64_t entity,
                       telemetry::MetadataStore& store) {
  telemetry::JobRecord j;
  j.pandaid = entity;
  j.jeditaskid = v.get_int("task");
  j.computing_site = site_of(v, "site");
  j.creation_time = v.get_int("created");
  j.start_time = v.get_int("started");
  j.end_time = v.get_int("ended");
  j.ninputfilebytes = static_cast<std::uint64_t>(v.get_int("in_bytes"));
  j.noutputfilebytes = static_cast<std::uint64_t>(v.get_int("out_bytes"));
  j.failed = v.get_bool("failed");
  j.error_code = static_cast<std::int32_t>(v.get_int("error"));
  j.direct_io = v.get_bool("direct_io");
  j.task_status = static_cast<wms::TaskStatus>(v.get_int("task_status"));
  store.record_job(std::move(j));
}

void replay_file_record(const obs::DecodedEvent& v, std::int64_t entity,
                        telemetry::MetadataStore& store) {
  telemetry::FileRecord f;
  f.pandaid = entity;
  f.jeditaskid = v.get_int("task");
  f.lfn = std::string(v.get_string("lfn"));
  f.dataset = std::string(v.get_string("dataset"));
  f.proddblock = std::string(v.get_string("proddblock"));
  f.scope = std::string(v.get_string("scope"));
  f.file_size = static_cast<std::uint64_t>(v.get_int("size"));
  f.direction = static_cast<telemetry::FileDirection>(v.get_int("dir"));
  store.record_file(std::move(f));
}

void replay_transfer_record(const obs::DecodedEvent& v, std::int64_t entity,
                            telemetry::MetadataStore& store) {
  telemetry::TransferRecord t;
  t.transfer_id = static_cast<std::uint64_t>(entity);
  t.jeditaskid = v.get_int("task", -1);
  t.lfn = std::string(v.get_string("lfn"));
  t.dataset = std::string(v.get_string("dataset"));
  t.proddblock = std::string(v.get_string("proddblock"));
  t.scope = std::string(v.get_string("scope"));
  t.file_size = static_cast<std::uint64_t>(v.get_int("size"));
  t.source_site = site_of(v, "src");
  t.destination_site = site_of(v, "dst");
  t.activity = static_cast<dms::Activity>(v.get_int("activity"));
  t.started_at = v.get_int("started");
  t.finished_at = v.get_int("finished");
  t.success = v.get_bool("success");
  t.error = static_cast<dms::TransferError>(v.get_int("terr"));
  store.record_transfer(std::move(t));
}

}  // namespace

std::string ReplayResult::site_name(grid::SiteId id) const {
  if (id == grid::kUnknownSite) return "UNKNOWN";
  const auto it = site_names.find(id);
  return it != site_names.end() ? it->second
                                : "site-" + std::to_string(id);
}

ReplayResult replay_events(EventSource& source) {
  ReplayResult result;
  while (const obs::DecodedEvent* event = source.next()) {
    const obs::DecodedEvent& v = *event;
    const std::string_view kind = v.get_string("kind");
    const obs::DecodedEvent::Field* ts_field = v.find("ts");
    if (kind.empty() || ts_field == nullptr) {
      ++result.lines_skipped;
      continue;
    }
    ++result.lines_parsed;
    ++result.kind_counts[std::string(kind)];
    const std::int64_t ts = ts_field->as_int();
    const std::int64_t entity = v.get_int("entity");

    if (kind == "job_record") {
      replay_job_record(v, entity, result.store);
    } else if (kind == "file_record") {
      replay_file_record(v, entity, result.store);
    } else if (kind == "transfer_record") {
      replay_transfer_record(v, entity, result.store);
      const std::int32_t terr =
          static_cast<std::int32_t>(v.get_int("terr"));
      if (terr != 0) ++result.failure_causes[terr];
    } else if (kind == "fault_window") {
      ReplayResult::FaultWindowEvent fw;
      fw.ts = ts;
      fw.fault_kind = std::string(v.get_string("fault"));
      fw.begin = v.get_string("phase") == "begin";
      fw.site = site_of(v, "site");
      fw.src = site_of(v, "src");
      fw.dst = site_of(v, "dst");
      fw.window_begin = v.get_int("begin");
      fw.window_end = v.get_int("end");
      result.fault_windows.push_back(std::move(fw));
    } else if (kind == "site_record") {
      const auto id = static_cast<grid::SiteId>(entity);
      result.site_names[id] = std::string(v.get_string("name"));
      result.site_tiers[id] = static_cast<std::int32_t>(v.get_int("tier"));
    } else if (kind == "log_stats") {
      result.log_stats.present = true;
      result.log_stats.events = static_cast<std::uint64_t>(
          v.get_int("events"));
      result.log_stats.dropped = static_cast<std::uint64_t>(
          v.get_int("dropped"));
      result.log_stats.bytes = static_cast<std::uint64_t>(
          v.get_int("bytes"));
    } else if (kind == "campaign_meta") {
      result.seed = static_cast<std::uint64_t>(v.get_int("seed"));
      result.days = v.get_double("days");
      result.window_begin = v.get_int("window_begin");
      result.window_end = v.get_int("window_end");
      result.sample_interval_ms = v.get_int("sample_interval_ms");
    } else if (kind == "sample") {
      // Column order comes from the first sample; later samples are
      // matched by name so a mixed stream still lines up.
      if (result.sample_columns.empty()) {
        for (const obs::DecodedEvent::Field& f : v.fields) {
          if (f.key == "ts" || f.key == "kind" || f.key == "entity") continue;
          result.sample_columns.emplace_back(f.key);
        }
      }
      ReplayResult::Sample row;
      row.ts = ts;
      row.values.reserve(result.sample_columns.size());
      for (const std::string& col : result.sample_columns) {
        row.values.push_back(v.get_int(col));
      }
      result.samples.push_back(std::move(row));
    } else if (kind == "link_sample") {
      ReplayResult::LinkSample ls;
      ls.ts = ts;
      ls.src = site_of(v, "src");
      ls.dst = site_of(v, "dst");
      ls.active = v.get_int("active");
      ls.queued = v.get_int("queued");
      ls.bytes_in_flight = v.get_int("bytes_in_flight");
      ls.rate_bps = v.get_double("rate_bps");
      ls.utilization = v.get_double("utilization");
      result.link_samples.push_back(ls);
    } else {
      // Flow/transfer lifecycle lines drive the flow rebuild; the rest
      // (job_state, rule_*, sched_epoch, ...) are lifecycle telemetry:
      // counted above, not re-simulated.
      result.flows->observe(v);
    }
  }
  result.lines_skipped += source.skipped();
  if (const std::string err = source.error(); !err.empty()) {
    util::log_warning() << "events replay: source stopped early: " << err;
  }
  return result;
}

ReplayResult replay_events(std::istream& in) {
  const auto source = make_ndjson_source(in);
  return replay_events(*source);
}

ReplayResult replay_events_file(const std::string& path) {
  const auto source = open_event_source(path);
  if (!source) {
    util::log_warning() << "events replay: cannot open " << path;
    return {};
  }
  return replay_events(*source);
}

}  // namespace pandarus::analysis
