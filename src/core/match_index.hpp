// MatchIndex: the shared, immutable index layer behind Algorithm 1.
//
// The paper's §5.5 notes that metadata volume "imposes the need for
// efficient computing for scalability".  This index is where that lands
// for the matching core:
//
//  * file rows are grouped by OWNING JOB — keyed on the full (pandaid,
//    jeditaskid) bridge, so stale rows (same pandaid, different task
//    generation) are excluded at build time instead of per query;
//  * transfers are grouped by Algorithm 1's join key (lfn, jeditaskid):
//    each pair that occurs with a task some job carries is interned to
//    a dense group id, so task equality is structural, like lfn
//    equality, and a file row's group holds exactly the transfers that
//    agree on both (transfers of other tasks can never be candidates);
//  * every record gets one 64-bit composite attribute key — the interned
//    (dataset, proddblock, scope) triple in the high half and an
//    interned file-size id in the low half — so the attribute-join
//    predicate of Algorithm 1 is ONE integer compare per candidate.
//    Key equality is exact (interned, not hashed): equal keys iff all
//    three strings and the size are equal.
//
// Both group-bys are CSR layouts (offsets + slots) built with a counting
// sort — count, prefix sum, scatter — so slots within each group are in
// ascending record order.
//
// One MatchIndex is built per snapshot and shared by every query over it:
// the exact and RM1/RM2 methods and the windowed matcher (all const).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "telemetry/store.hpp"

namespace pandarus::core {

class MatchIndex {
 public:
  /// The store must outlive the index and stay unmodified.
  explicit MatchIndex(const telemetry::MetadataStore& store);

  /// File rows whose (pandaid, jeditaskid) equals the job's — the F'_j
  /// of Algorithm 1, stale rows already excluded.  Ascending row order.
  [[nodiscard]] std::span<const std::uint32_t> files_of_job(
      std::size_t job_index) const noexcept {
    return group(file_offsets_, file_slots_, job_index);
  }

  /// Transfers whose (lfn, jeditaskid) equals the file row's.  A row
  /// bridged to a job carries that job's task, so these are the job's
  /// candidates for this file.  Ascending row order.
  [[nodiscard]] std::span<const std::uint32_t> transfers_for_file(
      std::size_t file_index) const noexcept {
    return group(transfer_offsets_, transfer_slots_, file_groups_[file_index]);
  }

  /// Composite attribute keys; `file_key(i) == transfer_key(j)` iff the
  /// records agree on dataset, proddblock, scope AND file_size.
  [[nodiscard]] std::uint64_t file_key(std::size_t file_index) const noexcept {
    return file_keys_[file_index];
  }
  [[nodiscard]] std::uint64_t transfer_key(
      std::size_t transfer_index) const noexcept {
    return transfer_keys_[transfer_index];
  }

  [[nodiscard]] const telemetry::MetadataStore& store() const noexcept {
    return *store_;
  }

 private:
  static std::span<const std::uint32_t> group(
      const std::vector<std::uint32_t>& offsets,
      const std::vector<std::uint32_t>& slots, std::size_t g) noexcept {
    if (g + 1 >= offsets.size()) return {};
    return std::span<const std::uint32_t>(slots)
        .subspan(offsets[g], offsets[g + 1] - offsets[g]);
  }

  const telemetry::MetadataStore* store_;
  /// CSR over jobs: file_slots_[file_offsets_[j] .. file_offsets_[j+1])
  /// are the file-row indices bridging to job j.
  std::vector<std::uint32_t> file_offsets_;
  std::vector<std::uint32_t> file_slots_;
  /// CSR over (lfn, jeditaskid) groups, same layout, into
  /// store.transfers(); file_groups_[i] is file row i's group, or
  /// 0xFFFF'FFFF (empty) when no job's transfer shares its key.
  std::vector<std::uint32_t> transfer_offsets_;
  std::vector<std::uint32_t> transfer_slots_;
  std::vector<std::uint32_t> file_groups_;
  std::vector<std::uint64_t> file_keys_;
  std::vector<std::uint64_t> transfer_keys_;
};

}  // namespace pandarus::core
