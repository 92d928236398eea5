// Unit tests for the telemetry layer: records, store queries, recorder
// conversion, corruption injection, CSV round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "telemetry/corruption.hpp"
#include "telemetry/io.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/store.hpp"

namespace pandarus::telemetry {
namespace {

TransferRecord basic_transfer(std::uint64_t id, std::int64_t taskid = 5) {
  TransferRecord t;
  t.transfer_id = id;
  t.jeditaskid = taskid;
  t.lfn = "f" + std::to_string(id);
  t.dataset = "ds";
  t.proddblock = "blk";
  t.scope = "mc23";
  t.file_size = 1000 + id;
  t.source_site = 1;
  t.destination_site = 2;
  t.activity = dms::Activity::kAnalysisDownload;
  t.started_at = static_cast<util::SimTime>(id * 100);
  t.finished_at = static_cast<util::SimTime>(id * 100 + 50);
  return t;
}

JobRecord basic_job(std::int64_t pandaid, std::int64_t taskid,
                    util::SimTime end) {
  JobRecord j;
  j.pandaid = pandaid;
  j.jeditaskid = taskid;
  j.computing_site = 1;
  j.creation_time = 0;
  j.start_time = end / 2;
  j.end_time = end;
  j.ninputfilebytes = 123;
  return j;
}

TEST(Records, TransferDerivedProperties) {
  TransferRecord t = basic_transfer(1);
  EXPECT_TRUE(t.has_jeditaskid());
  EXPECT_TRUE(t.is_download());
  EXPECT_FALSE(t.is_upload());
  EXPECT_FALSE(t.is_local());
  t.destination_site = 1;
  EXPECT_TRUE(t.is_local());
  t.source_site = grid::kUnknownSite;
  EXPECT_FALSE(t.is_local());  // unknown endpoints are never local
  t.jeditaskid = -1;
  EXPECT_FALSE(t.has_jeditaskid());
  EXPECT_NEAR(basic_transfer(1).throughput_bps(), 1001 / 0.05, 1.0);
}

TEST(Store, CountsAndTaskidTally) {
  MetadataStore store;
  store.record_transfer(basic_transfer(1));
  store.record_transfer(basic_transfer(2, -1));
  store.record_job(basic_job(1, 5, 1000));
  const auto counts = store.counts();
  EXPECT_EQ(counts.jobs, 1u);
  EXPECT_EQ(counts.transfers, 2u);
  EXPECT_EQ(counts.transfers_with_taskid, 1u);
}

TEST(Store, WindowQueries) {
  MetadataStore store;
  store.record_job(basic_job(1, 5, 1000));
  store.record_job(basic_job(2, 5, 5000));
  store.record_transfer(basic_transfer(1));   // starts at 100
  store.record_transfer(basic_transfer(30));  // starts at 3000
  EXPECT_EQ(store.jobs_completed_in(0, 2000),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(store.jobs_completed_in(0, 10'000).size(), 2u);
  EXPECT_EQ(store.transfers_started_in(0, 1000),
            (std::vector<std::size_t>{0}));
}

TEST(Store, FinalizeTaskBackfillsStatus) {
  MetadataStore store;
  store.record_job(basic_job(1, 5, 1000));
  store.record_job(basic_job(2, 5, 2000));
  store.record_job(basic_job(3, 6, 3000));
  store.finalize_task(5, wms::TaskStatus::kFailed);
  EXPECT_EQ(store.jobs()[0].task_status, wms::TaskStatus::kFailed);
  EXPECT_EQ(store.jobs()[1].task_status, wms::TaskStatus::kFailed);
  EXPECT_EQ(store.jobs()[2].task_status, wms::TaskStatus::kRunning);
  store.finalize_task(999, wms::TaskStatus::kDone);  // unknown: no-op
}

struct RecorderFixture {
  MetadataStore store;
  dms::FileCatalog catalog;
  dms::DatasetId ds;
  dms::FileId file;

  RecorderFixture() {
    ds = catalog.create_dataset("mc23", "recorder.ds");
    file = catalog.add_file(ds, 7'000'000);
  }

  Recorder make(Recorder::Params params = {}) {
    return Recorder(store, catalog, util::Rng(9), params);
  }

  dms::TransferOutcome outcome(dms::Activity activity,
                               std::int64_t pandaid = 11) {
    dms::TransferOutcome o;
    o.transfer_id = 77;
    o.file = file;
    o.size_bytes = 7'000'000;
    o.src = 0;
    o.dst = 1;
    o.activity = activity;
    o.jeditaskid = 5;
    o.pandaid = pandaid;
    o.started_at = 10;
    o.finished_at = 60;
    o.success = true;
    o.replica_registered = true;
    return o;
  }
};

TEST(Recorder, TransferRecordCarriesCatalogNames) {
  RecorderFixture fx;
  Recorder rec = fx.make();
  rec.on_transfer(fx.outcome(dms::Activity::kAnalysisDownload));
  ASSERT_EQ(fx.store.transfers().size(), 1u);
  const TransferRecord& t = fx.store.transfers()[0];
  EXPECT_EQ(t.lfn, fx.catalog.lfn(fx.file));
  EXPECT_EQ(t.dataset, "recorder.ds");
  EXPECT_EQ(t.scope, "mc23");
  EXPECT_EQ(t.file_size, 7'000'000u);
  EXPECT_EQ(t.jeditaskid, 5);
  EXPECT_EQ(t.destination_site, 1u);
}

TEST(Recorder, RegistrationFailureMayUnknownDestination) {
  RecorderFixture fx;
  Recorder::Params params;
  params.p_unknown_dst_on_registration_failure = 1.0;
  Recorder rec = fx.make(params);
  auto o = fx.outcome(dms::Activity::kAnalysisDownload);
  o.replica_registered = false;
  rec.on_transfer(o);
  EXPECT_EQ(fx.store.transfers()[0].destination_site, grid::kUnknownSite);
}

TEST(Recorder, DirectIoPartialReadsAreJobCorrelated) {
  RecorderFixture fx;
  Recorder::Params params;
  params.p_partial_read_job = 0.5;
  Recorder rec = fx.make(params);
  // Record many streams for two jobs; each job's records must be
  // uniformly clean or uniformly partial.
  for (int rep = 0; rep < 5; ++rep) {
    rec.on_transfer(
        fx.outcome(dms::Activity::kAnalysisDownloadDirectIO, 1001));
    rec.on_transfer(
        fx.outcome(dms::Activity::kAnalysisDownloadDirectIO, 1002));
  }
  auto all_clean = [&](std::int64_t, int offset) {
    bool clean = true;
    bool dirty = true;
    for (int rep = 0; rep < 5; ++rep) {
      const auto idx = static_cast<std::size_t>(rep * 2 + offset);
      const bool full = fx.store.transfers()[idx].file_size == 7'000'000u;
      clean &= full;
      dirty &= !full;
    }
    return clean || dirty;  // correlated either way
  };
  EXPECT_TRUE(all_clean(1001, 0));
  EXPECT_TRUE(all_clean(1002, 1));
}

TEST(Recorder, ProductionJobsSkippedByDefault) {
  RecorderFixture fx;
  Recorder rec = fx.make();
  wms::Job job;
  job.pandaid = 1;
  job.jeditaskid = 5;
  job.kind = wms::JobKind::kProduction;
  job.input_files = {fx.file};
  rec.on_job_complete(job);
  EXPECT_TRUE(fx.store.jobs().empty());
  EXPECT_TRUE(fx.store.files().empty());

  job.kind = wms::JobKind::kUserAnalysis;
  rec.on_job_complete(job);
  EXPECT_EQ(fx.store.jobs().size(), 1u);
  EXPECT_EQ(fx.store.files().size(), 1u);
  EXPECT_EQ(fx.store.files()[0].direction, FileDirection::kInput);
}

TEST(Corruption, ChannelsAreCountedAndBounded) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    store.record_transfer(basic_transfer(i));
  }
  CorruptionParams params;
  params.p_drop_transfer_taskid = 0.5;
  params.p_unknown_source = 0.0;
  params.p_unknown_destination = 0.0;
  params.p_size_jitter = 0.0;
  params.bad_site_fraction = 0.0;
  params.p_drop_file_record = 0.0;
  params.p_drop_job_record = 0.0;
  const CorruptionReport report =
      inject_corruption(store, params, util::Rng(3));
  EXPECT_NEAR(static_cast<double>(report.transfers_taskid_dropped), 1000.0,
              120.0);
  std::size_t without = 0;
  for (const auto& t : store.transfers()) without += !t.has_jeditaskid();
  EXPECT_EQ(without, report.transfers_taskid_dropped);
}

TEST(Corruption, BadSiteChannelSparesUploads) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 500; ++i) {
    TransferRecord t = basic_transfer(i);
    // Big files so a relative jitter always changes the integer size.
    t.file_size = 1'000'000'000 + i;
    t.activity = i % 2 == 0 ? dms::Activity::kAnalysisDownload
                            : dms::Activity::kAnalysisUpload;
    store.record_transfer(t);
  }
  CorruptionParams params;
  params.p_drop_transfer_taskid = 0.0;
  params.p_unknown_source = 0.0;
  params.p_unknown_destination = 0.0;
  params.p_size_jitter = 0.0;
  params.bad_site_fraction = 1.0;  // every site is bad
  params.p_size_jitter_bad_site = 1.0;
  params.p_unknown_endpoint_bad_site_tasked = 0.0;
  params.p_unknown_endpoint_bad_site_anonymous = 0.0;
  inject_corruption(store, params, util::Rng(3));
  for (std::size_t i = 0; i < store.transfers().size(); ++i) {
    const TransferRecord& t = store.transfers()[i];
    const std::uint64_t original = 1'000'000'000 + i;
    if (t.is_upload()) {
      EXPECT_EQ(t.file_size, original);  // pilot-recorded, intact
    } else {
      EXPECT_NE(t.file_size, original);  // storage dump, jittered
    }
  }
}

TEST(Corruption, BadSiteFlagIsDeterministic) {
  CorruptionParams params;
  params.bad_site_fraction = 0.5;
  int bad = 0;
  for (grid::SiteId s = 0; s < 200; ++s) {
    EXPECT_EQ(is_bad_metadata_site(params, s),
              is_bad_metadata_site(params, s));
    bad += is_bad_metadata_site(params, s);
  }
  EXPECT_GT(bad, 60);
  EXPECT_LT(bad, 140);
  EXPECT_FALSE(is_bad_metadata_site(params, grid::kUnknownSite));
}

TEST(Corruption, DropChannelsShrinkStores) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    FileRecord f;
    f.pandaid = static_cast<std::int64_t>(i);
    f.lfn = "x";
    store.record_file(f);
    store.record_job(basic_job(static_cast<std::int64_t>(i), 5, 100));
  }
  CorruptionParams params{};
  params.p_drop_file_record = 0.3;
  params.p_drop_job_record = 0.3;
  const auto report = inject_corruption(store, params, util::Rng(4));
  EXPECT_EQ(store.files().size(), 1000 - report.file_records_dropped);
  EXPECT_EQ(store.jobs().size(), 1000 - report.job_records_dropped);
  EXPECT_NEAR(static_cast<double>(report.file_records_dropped), 300.0, 80.0);
}

TEST(Store, TimeWindowsSelectHalfOpenRanges) {
  MetadataStore store;
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.record_transfer(basic_transfer(i));  // starts at i*100
    store.record_job(
        basic_job(static_cast<std::int64_t>(i), 5,
                  static_cast<util::SimTime>(i * 100 + 10)));
  }
  // [0, 1000): transfers starting 0..900 and jobs ending 10..910.
  const std::vector<std::size_t> first_ten = {0, 1, 2, 3, 4,
                                              5, 6, 7, 8, 9};
  EXPECT_EQ(store.transfers_started_in(0, 1000), first_ten);
  EXPECT_EQ(store.jobs_completed_in(0, 1000), first_ten);
  // The upper bound is exclusive: a transfer starting at t1 is out,
  // and a job ending at t0 is in.
  EXPECT_EQ(store.transfers_started_in(4900, 5000),
            (std::vector<std::size_t>{49}));
  EXPECT_EQ(store.transfers_started_in(4800, 4900),
            (std::vector<std::size_t>{48}));
  EXPECT_EQ(store.jobs_completed_in(4910, 4911),
            (std::vector<std::size_t>{49}));
  EXPECT_TRUE(store.jobs_completed_in(4911, 10000).empty());
}

TEST(Io, RoundTripPreservesRecords) {
  MetadataStore store;
  store.record_job(basic_job(1, 5, 1000));
  JobRecord failed = basic_job(2, 6, 2000);
  failed.failed = true;
  failed.error_code = 1305;
  failed.task_status = wms::TaskStatus::kFailed;
  failed.computing_site = grid::kUnknownSite;
  store.record_job(failed);

  FileRecord f;
  f.pandaid = 1;
  f.jeditaskid = 5;
  f.lfn = "a,b";  // comma forces quoting
  f.dataset = "ds";
  f.proddblock = "blk";
  f.scope = "mc23";
  f.file_size = 42;
  f.direction = FileDirection::kOutput;
  store.record_file(f);

  TransferRecord t = basic_transfer(9);
  t.destination_site = grid::kUnknownSite;
  t.success = false;
  store.record_transfer(t);

  std::stringstream jobs_csv;
  std::stringstream files_csv;
  std::stringstream transfers_csv;
  write_jobs_csv(jobs_csv, store);
  write_files_csv(files_csv, store);
  write_transfers_csv(transfers_csv, store);

  MetadataStore loaded;
  EXPECT_EQ(read_jobs_csv(jobs_csv, loaded), 0u);
  EXPECT_EQ(read_files_csv(files_csv, loaded), 0u);
  EXPECT_EQ(read_transfers_csv(transfers_csv, loaded), 0u);

  ASSERT_EQ(loaded.jobs().size(), 2u);
  EXPECT_EQ(loaded.jobs()[1].pandaid, 2);
  EXPECT_TRUE(loaded.jobs()[1].failed);
  EXPECT_EQ(loaded.jobs()[1].error_code, 1305);
  EXPECT_EQ(loaded.jobs()[1].task_status, wms::TaskStatus::kFailed);
  EXPECT_EQ(loaded.jobs()[1].computing_site, grid::kUnknownSite);

  ASSERT_EQ(loaded.files().size(), 1u);
  EXPECT_EQ(loaded.files()[0].lfn, "a,b");
  EXPECT_EQ(loaded.files()[0].direction, FileDirection::kOutput);

  ASSERT_EQ(loaded.transfers().size(), 1u);
  EXPECT_EQ(loaded.transfers()[0].destination_site, grid::kUnknownSite);
  EXPECT_FALSE(loaded.transfers()[0].success);
  EXPECT_EQ(loaded.transfers()[0].lfn, "f9");
}

TEST(Io, MalformedRowsSkippedNotFatal) {
  std::stringstream bad(
      "pandaid,jeditaskid,computing_site,creation_time,start_time,end_time,"
      "ninputfilebytes,noutputfilebytes,failed,error_code,direct_io,"
      "task_status\n"
      "not,a,valid,row,at,all,x,x,x,x,x,x\n"
      "1,5,2,0,10,20,100,0,0,0,0,1\n");
  MetadataStore store;
  EXPECT_EQ(read_jobs_csv(bad, store), 1u);
  ASSERT_EQ(store.jobs().size(), 1u);
  EXPECT_EQ(store.jobs()[0].pandaid, 1);
}

}  // namespace
}  // namespace pandarus::telemetry
