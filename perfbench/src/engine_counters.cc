#include "engine_counters.h"

namespace perfbench {

EngineCounters ReadEngineCounters(lsmlab::DB* db) {
  const lsmlab::Statistics& s = *db->statistics();
  EngineCounters c;
  c.point_lookups = s.point_lookups.load();
  c.runs_probed = s.runs_probed.load();
  c.filter_checks = s.filter_checks.load();
  c.filter_false_positives = s.filter_false_positives.load();
  c.table_opens = s.table_cache_misses.load();
  c.readahead_hits = s.readahead_hits.load();
  c.readahead_misses = s.readahead_misses.load();
  c.writes = s.writes.load();
  c.write_groups = s.write_groups.load();
  c.stall_micros = s.write_stall_micros.load() + s.write_slowdown_micros.load();
  c.flushes = s.flushes.load();
  c.compactions = s.compactions.load();
  c.compaction_bytes_written = s.compaction_bytes_written.load();
  c.cross_shard_batches = s.cross_shard_batches.load();
  if (db->block_cache() != nullptr) {
    lsmlab::CacheStats cache = db->block_cache()->GetStats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.cache_evictions = cache.evictions;
  }
  return c;
}

EngineCounters EngineCounters::Since(const EngineCounters& e) const {
  EngineCounters d;
  d.point_lookups = point_lookups - e.point_lookups;
  d.runs_probed = runs_probed - e.runs_probed;
  d.filter_checks = filter_checks - e.filter_checks;
  d.filter_false_positives = filter_false_positives - e.filter_false_positives;
  d.table_opens = table_opens - e.table_opens;
  d.readahead_hits = readahead_hits - e.readahead_hits;
  d.readahead_misses = readahead_misses - e.readahead_misses;
  d.writes = writes - e.writes;
  d.write_groups = write_groups - e.write_groups;
  d.stall_micros = stall_micros - e.stall_micros;
  d.flushes = flushes - e.flushes;
  d.compactions = compactions - e.compactions;
  d.compaction_bytes_written =
      compaction_bytes_written - e.compaction_bytes_written;
  d.cross_shard_batches = cross_shard_batches - e.cross_shard_batches;
  d.cache_hits = cache_hits - e.cache_hits;
  d.cache_misses = cache_misses - e.cache_misses;
  d.cache_evictions = cache_evictions - e.cache_evictions;
  return d;
}

}  // namespace perfbench
