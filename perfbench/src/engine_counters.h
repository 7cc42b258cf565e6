#ifndef PERFBENCH_ENGINE_COUNTERS_H_
#define PERFBENCH_ENGINE_COUNTERS_H_

#include <cstdint>

#include "db/db.h"

namespace perfbench {

/// The engine's public counters the benchmark uses, copied out in one
/// place: ReadEngineCounters is the only code that touches
/// DB::statistics() and DB::block_cache(), so a change to those types has
/// one function to follow.
struct EngineCounters {
  // Statistics.
  uint64_t point_lookups = 0;
  uint64_t runs_probed = 0;
  uint64_t filter_checks = 0;
  uint64_t filter_false_positives = 0;
  uint64_t table_opens = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_misses = 0;
  uint64_t writes = 0;
  uint64_t write_groups = 0;
  uint64_t stall_micros = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t cross_shard_batches = 0;
  // Block cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  /// Field-wise `*this - earlier`.
  EngineCounters Since(const EngineCounters& earlier) const;
};

EngineCounters ReadEngineCounters(lsmlab::DB* db);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_COUNTERS_H_
