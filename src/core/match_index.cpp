#include "core/match_index.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace pandarus::core {
namespace {

constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

/// Minimal open-addressing u64 -> dense-id table (linear probing,
/// power-of-two capacity).  A node-based unordered_map costs one
/// allocation per distinct key, which used to dominate the whole index
/// build; this is two cache lines per lookup and zero allocation after
/// construction.
class FlatU64Interner {
 public:
  explicit FlatU64Interner(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.resize(cap);
    ids_.assign(cap, kNone);
    mask_ = cap - 1;
  }

  std::uint32_t intern(std::uint64_t key) noexcept {
    const std::size_t i = slot(key);
    if (ids_[i] == kNone) {
      keys_[i] = key;
      ids_[i] = next_++;
    }
    return ids_[i];
  }

  /// The key's id, or kNone if it was never interned.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    return ids_[slot(key)];
  }

  /// Number of distinct keys interned (ids are 0 .. size() - 1).
  [[nodiscard]] std::uint32_t size() const noexcept { return next_; }

 private:
  /// The key's slot if present, else the empty slot it would take.
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept {
    std::size_t i = util::hash_mix(key) & mask_;
    while (ids_[i] != kNone && keys_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  std::size_t mask_ = 0;
  std::uint32_t next_ = 0;
};

/// Counting-sort group-by into a CSR layout: count -> prefix sum ->
/// scatter.  `emit(i, sink)` assigns item i to zero or more groups by
/// calling sink(g); it must be pure — it runs once per pass.  Items are
/// scattered in ascending order, so slots within a group ascend too.
template <typename EmitFn>
void build_csr(std::size_t n_items, std::size_t n_groups, const EmitFn& emit,
               std::vector<std::uint32_t>& offsets,
               std::vector<std::uint32_t>& slots) {
  // offsets[g + 1] counts group g; the prefix sum turns offsets[g] into
  // group g's first slot.
  offsets.assign(n_groups + 1, 0);
  for (std::size_t i = 0; i < n_items; ++i) {
    emit(i, [&](std::uint32_t g) { ++offsets[g + 1]; });
  }
  for (std::size_t g = 0; g < n_groups; ++g) offsets[g + 1] += offsets[g];

  // Scatter with offsets[g] as group g's write cursor: it ends at group
  // g + 1's first slot, so shifting right by one restores the offsets.
  slots.resize(offsets[n_groups]);
  for (std::size_t i = 0; i < n_items; ++i) {
    emit(i, [&](std::uint32_t g) {
      slots[offsets[g]++] = static_cast<std::uint32_t>(i);
    });
  }
  std::shift_right(offsets.begin(), offsets.end(), 1);
  offsets[0] = 0;
}

}  // namespace

MatchIndex::MatchIndex(const telemetry::MetadataStore& store)
    : store_(&store) {
  const obs::ScopedSpan span("match_index/build", "core");
  static obs::Counter& builds = obs::Registry::global().counter(
      "pandarus_match_index_builds_total", "MatchIndex constructions");
  builds.inc();
  const auto jobs = store.jobs();
  const auto files = store.files();
  const auto transfers = store.transfers();
  const std::size_t n_jobs = jobs.size();

  // pandaid -> intrusive chain of job slots.  The common case is one
  // job per pandaid; duplicates (pathological stores) are chained so a
  // file row can bridge to every job whose (pandaid, jeditaskid) agree.
  std::vector<std::uint32_t> next_same_pandaid(n_jobs, kNone);
  std::unordered_map<std::int64_t, std::uint32_t> job_by_pandaid;
  job_by_pandaid.reserve(n_jobs * 2);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const auto [it, inserted] = job_by_pandaid.try_emplace(
        jobs[j].pandaid, static_cast<std::uint32_t>(j));
    if (!inserted) {
      next_same_pandaid[j] = it->second;
      it->second = static_cast<std::uint32_t>(j);
    }
  }

  // One hash lookup per file row, hoisted out of the two CSR passes.
  std::vector<std::uint32_t> row_head(files.size(), kNone);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto it = job_by_pandaid.find(files[i].pandaid);
    if (it != job_by_pandaid.end()) row_head[i] = it->second;
  }

  const auto emit_file = [&](std::size_t i, auto&& sink) {
    const std::int64_t jeditaskid = files[i].jeditaskid;
    for (std::uint32_t j = row_head[i]; j != kNone;
         j = next_same_pandaid[j]) {
      if (jobs[j].jeditaskid == jeditaskid) sink(j);
    }
  };
  build_csr(files.size(), n_jobs, emit_file, file_offsets_, file_slots_);

  // Transfers grouped by the join key (lfn, jeditaskid), one dense id
  // per pair that occurs.  A bridged file row carries its job's task,
  // so only the jobs' tasks get dense ids: a transfer of any other task
  // (or of none) can never be a candidate and joins no group.
  FlatU64Interner tasks(n_jobs);
  for (const auto& job : jobs) {
    tasks.intern(static_cast<std::uint64_t>(job.jeditaskid));
  }
  const auto task_of = [&tasks](std::int64_t jeditaskid) {
    return tasks.find(static_cast<std::uint64_t>(jeditaskid));
  };
  // First pass: each transfer's dense task; counts size the pair table.
  const std::size_t n_syms = store.symbols().size();
  std::vector<std::uint32_t> transfer_group(transfers.size(), kNone);
  std::size_t n_keyed = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    if (transfers[i].lfn_sym >= n_syms) continue;
    transfer_group[i] = task_of(transfers[i].jeditaskid);
    n_keyed += transfer_group[i] != kNone;
  }
  // Second pass: dense task -> dense (lfn, task) group, in place.
  FlatU64Interner pairs(n_keyed);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    if (transfer_group[i] == kNone) continue;
    transfer_group[i] = pairs.intern(
        util::pack_symbols(transfers[i].lfn_sym, transfer_group[i]));
  }
  const auto emit_transfer = [&](std::size_t i, auto&& sink) {
    if (transfer_group[i] != kNone) sink(transfer_group[i]);
  };
  build_csr(transfers.size(), pairs.size(), emit_transfer,
            transfer_offsets_, transfer_slots_);

  // Each file row looks up the one group its own (lfn, jeditaskid)
  // names: kNone (an empty group) when no transfer carries the pair.
  file_groups_.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    file_groups_[i] = pairs.find(
        util::pack_symbols(files[i].lfn_sym, task_of(files[i].jeditaskid)));
  }

  // Composite attribute keys: interned (dataset, proddblock, scope)
  // triple in the high half, an interned file-size id in the low half.
  // Sizes are folded in here rather than at ingest because the
  // corruption injector jitters them in place after recording.  Key
  // equality is exact: equal keys iff the triple and the size agree.
  FlatU64Interner sizes(files.size() + transfers.size());
  file_keys_.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    file_keys_[i] = util::pack_symbols(files[i].attr_sym,
                                       sizes.intern(files[i].file_size));
  }
  transfer_keys_.resize(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    transfer_keys_[i] = util::pack_symbols(transfers[i].attr_sym,
                                           sizes.intern(transfers[i].file_size));
  }
}

}  // namespace pandarus::core
