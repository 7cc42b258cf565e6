#ifndef LSMLAB_DB_STATISTICS_H_
#define LSMLAB_DB_STATISTICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_stripe.h"

namespace lsmlab {

/// A uint64 counter striped over kThreadStripes cache lines: each thread
/// adds to its own stripe, so threads bumping one counter on every lookup
/// write no shared cache line. A read sums the stripes; it is exact once
/// the adders are quiescent, and under concurrent adds it sees a subset of
/// them, as a relaxed std::atomic load would. Spelled like
/// std::atomic<uint64_t> (fetch_add / load / operator=) so the call sites
/// and every reader of Statistics compile unchanged. fetch_add returns
/// nothing: a per-stripe previous value means nothing to the caller.
class StripedCounter {
 public:
  StripedCounter() = default;
  StripedCounter(const StripedCounter&) = delete;
  StripedCounter& operator=(const StripedCounter&) = delete;

  void fetch_add(uint64_t n,
                 std::memory_order /*order*/ = std::memory_order_relaxed) {
    stripes_[ThisThreadStripe()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  uint64_t load(
      std::memory_order /*order*/ = std::memory_order_relaxed) const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Sets the total to `value` (Statistics::Reset). Adds racing the store
  /// may survive it, as they would survive a std::atomic store.
  uint64_t operator=(uint64_t value) {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
    stripes_[0].value.store(value, std::memory_order_relaxed);
    return value;
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kThreadStripes> stripes_{};
};

/// Engine-wide counters. Every experiment reads these to report the
/// I/O-shape metrics the tutorial reasons about (superfluous probes saved by
/// filters, compaction traffic, stall time). Every counter is atomic with
/// relaxed increments. Those that every Get / MultiGet / filter / index
/// probe bumps are StripedCounters, so concurrent readers write no shared
/// cache line; the rest are plain std::atomic.
struct Statistics {
  // Read path.
  StripedCounter point_lookups;
  StripedCounter point_lookup_found;
  StripedCounter runs_probed;          // Sorted runs actually read.
  StripedCounter runs_skipped_by_filter;
  StripedCounter filter_checks;
  StripedCounter filter_false_positives;
  std::atomic<uint64_t> range_scans{0};
  /// Table-reader resolutions served without opening the file (a pinned
  /// per-version handle or the sharded reader map already held it) vs.
  /// resolutions that had to open and parse the table footer.
  StripedCounter table_cache_hits;
  std::atomic<uint64_t> table_cache_misses{0};
  /// ReadView republications (membership changes of {mem, imms, version});
  /// steady-state reads acquire the current view without touching them.
  std::atomic<uint64_t> read_views_published{0};
  /// MultiGet batches and the keys they carried; keys / batches is the mean
  /// batch size.
  StripedCounter multiget_batches;
  StripedCounter multiget_keys;
  /// Point-lookup block reads (DESIGN.md, "Point lookups"): MultiRead
  /// submissions issued by Get, MultiGet and the vlog-GC lookup, the block
  /// reads they carried (reads / batches is the mean submission depth), and
  /// the bytes those reads returned.
  StripedCounter io_batches;
  StripedCounter io_batch_reads;
  StripedCounter io_batch_bytes;
  /// Iterator readahead: data-block reads served from the prefetch buffer
  /// vs. reads that had to go to the device.
  std::atomic<uint64_t> readahead_hits{0};
  std::atomic<uint64_t> readahead_misses{0};
  /// Learned per-table indexes (DESIGN.md, "Pluggable per-table indexes"):
  /// lookups the model certified from digests alone vs. lookups that hit a
  /// digest tie and fell back to the binary-searched fence block. A
  /// mispredicting model shows up here, not as silent slowdown.
  StripedCounter learned_index_hits;
  StripedCounter learned_index_fallbacks;
  /// Index bytes pinned in memory by table opens plus lazy fence-block
  /// loads; learned tables pin the (much smaller) model block up front and
  /// the fence block only on first fallback.
  std::atomic<uint64_t> index_bytes_loaded{0};

  // Write path. `writes` counts operations; `write_groups` counts leader
  // commits, so writes / write_groups is the mean group-commit batch size.
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_groups{0};
  std::atomic<uint64_t> wal_syncs{0};
  std::atomic<uint64_t> wal_bytes_written{0};
  std::atomic<uint64_t> write_stall_micros{0};
  std::atomic<uint64_t> write_slowdown_micros{0};

  // Internal operations.
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_bytes_read{0};
  std::atomic<uint64_t> compaction_bytes_written{0};
  std::atomic<uint64_t> flush_bytes_written{0};
  std::atomic<uint64_t> tombstones_dropped{0};
  std::atomic<uint64_t> entries_dropped_obsolete{0};

  // Background job engine. Per-level counters are indexed by the output
  // level of the compaction (clamped to kMaxStatsLevels - 1).
  static constexpr int kMaxStatsLevels = 16;
  std::array<std::atomic<uint64_t>, kMaxStatsLevels> compactions_at_level{};
  std::array<std::atomic<uint64_t>, kMaxStatsLevels>
      compaction_bytes_read_at_level{};
  std::array<std::atomic<uint64_t>, kMaxStatsLevels>
      compaction_bytes_written_at_level{};
  /// Gauge: compactions admitted and not yet finished.
  std::atomic<uint64_t> compactions_running{0};
  /// High-water mark of compactions_running (observed parallelism).
  std::atomic<uint64_t> max_compactions_running{0};
  /// Subcompaction shards executed (counts only split jobs' shards).
  std::atomic<uint64_t> subcompactions{0};

  // Background-error recovery (DESIGN.md, "Failure model & recovery").
  /// Soft (retryable) background errors recorded; counts every occurrence,
  /// so one transient window may record several.
  std::atomic<uint64_t> bg_error_soft{0};
  /// Transitions into the hard (read-only) error state.
  std::atomic<uint64_t> bg_error_hard{0};
  /// Retry attempts scheduled after soft errors.
  std::atomic<uint64_t> bg_retries{0};
  /// Retried flushes/compactions that subsequently succeeded.
  std::atomic<uint64_t> bg_retry_success{0};
  /// DB::Resume() invocations.
  std::atomic<uint64_t> resume_calls{0};
  /// Checksum scrub (DB::VerifyChecksums): bytes walked through
  /// block-trailer / record-framing verification, and corruptions found.
  std::atomic<uint64_t> scrub_bytes_verified{0};
  std::atomic<uint64_t> scrub_corruptions{0};

  // Sharded facade (DESIGN.md, "Sharding architecture"). Only the facade
  // increments these; engines never touch them, so shared Statistics are
  // never double-counted.
  /// WriteBatches that spanned more than one shard (two-phase committed).
  std::atomic<uint64_t> cross_shard_batches{0};
  /// Per-shard prepare records written for cross-shard batches.
  std::atomic<uint64_t> shard_prepares{0};
  /// Cross-shard batches whose facade commit record reached the commit log.
  std::atomic<uint64_t> shard_commits{0};
  /// Cross-shard batches aborted after a prepare failure.
  std::atomic<uint64_t> shard_aborts{0};

  void Reset() {
    point_lookups = 0;
    point_lookup_found = 0;
    runs_probed = 0;
    runs_skipped_by_filter = 0;
    filter_checks = 0;
    filter_false_positives = 0;
    range_scans = 0;
    table_cache_hits = 0;
    table_cache_misses = 0;
    read_views_published = 0;
    multiget_batches = 0;
    multiget_keys = 0;
    io_batches = 0;
    io_batch_reads = 0;
    io_batch_bytes = 0;
    readahead_hits = 0;
    readahead_misses = 0;
    learned_index_hits = 0;
    learned_index_fallbacks = 0;
    index_bytes_loaded = 0;
    writes = 0;
    write_groups = 0;
    wal_syncs = 0;
    wal_bytes_written = 0;
    write_stall_micros = 0;
    write_slowdown_micros = 0;
    {
      MutexLock lock(&write_group_size_mu_);
      write_group_size_.Clear();
    }
    flushes = 0;
    compactions = 0;
    compaction_bytes_read = 0;
    compaction_bytes_written = 0;
    flush_bytes_written = 0;
    tombstones_dropped = 0;
    entries_dropped_obsolete = 0;
    for (int i = 0; i < kMaxStatsLevels; ++i) {
      compactions_at_level[static_cast<size_t>(i)] = 0;
      compaction_bytes_read_at_level[static_cast<size_t>(i)] = 0;
      compaction_bytes_written_at_level[static_cast<size_t>(i)] = 0;
    }
    // compactions_running is a live gauge; resetting it would corrupt the
    // scheduler's accounting, so only the high-water mark clears.
    max_compactions_running = 0;
    subcompactions = 0;
    bg_error_soft = 0;
    bg_error_hard = 0;
    bg_retries = 0;
    bg_retry_success = 0;
    resume_calls = 0;
    scrub_bytes_verified = 0;
    scrub_corruptions = 0;
    cross_shard_batches = 0;
    shard_prepares = 0;
    shard_commits = 0;
    shard_aborts = 0;
    {
      MutexLock lock(&compaction_duration_mu_);
      compaction_duration_micros_.Clear();
    }
  }

  /// Average sorted runs touched per point lookup — the read-cost metric of
  /// the tutorial's filter discussion.
  double RunsProbedPerLookup() const {
    uint64_t lookups = point_lookups.load();
    return lookups == 0 ? 0.0
                        : static_cast<double>(runs_probed.load()) /
                              static_cast<double>(lookups);
  }

  double FilterFalsePositiveRate() const {
    uint64_t checks = filter_checks.load();
    return checks == 0 ? 0.0
                       : static_cast<double>(filter_false_positives.load()) /
                             static_cast<double>(checks);
  }

  /// Records the number of writers coalesced into one group commit.
  void RecordWriteGroupSize(uint64_t writers_in_group)
      EXCLUDES(write_group_size_mu_) {
    MutexLock lock(&write_group_size_mu_);
    write_group_size_.Add(static_cast<double>(writers_in_group));
  }

  /// Snapshot of the group-size distribution (writers per WAL record).
  Histogram WriteGroupSizes() const EXCLUDES(write_group_size_mu_) {
    MutexLock lock(&write_group_size_mu_);
    return write_group_size_;
  }

  /// WAL fsyncs per operation; < 1 under sync writes means fsyncs are being
  /// amortized across group-committed writers.
  double WalSyncsPerWrite() const {
    uint64_t w = writes.load();
    return w == 0 ? 0.0
                  : static_cast<double>(wal_syncs.load()) /
                        static_cast<double>(w);
  }

  /// Credits a finished compaction against its output level's counters.
  void RecordCompactionAtLevel(int output_level, uint64_t bytes_read,
                               uint64_t bytes_written) {
    size_t slot = static_cast<size_t>(
        std::min(std::max(output_level, 0), kMaxStatsLevels - 1));
    compactions_at_level[slot].fetch_add(1, std::memory_order_relaxed);
    compaction_bytes_read_at_level[slot].fetch_add(bytes_read,
                                                   std::memory_order_relaxed);
    compaction_bytes_written_at_level[slot].fetch_add(
        bytes_written, std::memory_order_relaxed);
  }

  /// Marks a compaction admitted; returns nothing but maintains the gauge
  /// and its high-water mark.
  void OnCompactionAdmitted() {
    uint64_t running =
        compactions_running.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t seen = max_compactions_running.load(std::memory_order_relaxed);
    while (running > seen &&
           !max_compactions_running.compare_exchange_weak(
               seen, running, std::memory_order_relaxed)) {
    }
  }

  void OnCompactionFinished() {
    compactions_running.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Records the wall-clock duration of one compaction job.
  void RecordCompactionDuration(uint64_t micros)
      EXCLUDES(compaction_duration_mu_) {
    MutexLock lock(&compaction_duration_mu_);
    compaction_duration_micros_.Add(static_cast<double>(micros));
  }

  /// Snapshot of the per-job compaction duration distribution (micros).
  Histogram CompactionDurations() const EXCLUDES(compaction_duration_mu_) {
    MutexLock lock(&compaction_duration_mu_);
    return compaction_duration_micros_;
  }

 private:
  mutable Mutex write_group_size_mu_{LockRank::kStatistics,
                                     "stats.write_group_size_mu"};
  Histogram write_group_size_ GUARDED_BY(write_group_size_mu_);
  mutable Mutex compaction_duration_mu_{LockRank::kStatistics,
                                        "stats.compaction_duration_mu"};
  Histogram compaction_duration_micros_ GUARDED_BY(compaction_duration_mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_STATISTICS_H_
