#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "db/db.h"
#include "db/dbformat.h"
#include "db/filename.h"
#include "db/merge_operator.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "table/table_reader.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace lsmlab {
namespace {

/// CI shard axis: LSMLAB_TEST_SHARDS=N re-runs the whole suite against an
/// N-shard DB (uniform first-byte splits). 0/unset is the classic
/// single-engine layout.
int TestShards() {
  const char* value = std::getenv("LSMLAB_TEST_SHARDS");
  return value != nullptr ? std::max(1, std::atoi(value)) : 1;
}

/// CI index axis: LSMLAB_TEST_INDEX=learned re-runs the whole suite with
/// per-SSTable learned (PLR) indexes instead of binary-search fences.
IndexType TestIndexType() {
  const char* value = std::getenv("LSMLAB_TEST_INDEX");
  if (value != nullptr && std::string(value) == "learned") {
    return IndexType::kLearnedPLR;
  }
  return IndexType::kBinarySearchFence;
}

/// Base fixture: small buffers so flushes and compactions happen quickly.
class DBTest : public ::testing::Test {
 protected:
  DBTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.max_bytes_for_level_base = 64 << 10;
    options_.target_file_size = 16 << 10;
    options_.block_size = 1024;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    options_.block_cache_capacity = 1 << 20;
    options_.num_shards = TestShards();
    options_.index_type = TestIndexType();
  }

  ~DBTest() override { db_.reset(); }

  void OpenDB() {
    db_.reset();
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  void Reopen() {
    db_.reset();
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  Status Put(const std::string& key, const std::string& value) {
    return db_->Put(WriteOptions(), key, value);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    }
    if (!s.ok()) {
      return "ERROR: " + s.ToString();
    }
    return value;
  }

  /// All live (key, value) pairs via a full scan.
  std::map<std::string, std::string> Dump() {
    std::map<std::string, std::string> result;
    auto iter = db_->NewIterator(ReadOptions());
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok());
    return result;
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, EmptyDB) {
  OpenDB();
  EXPECT_EQ("NOT_FOUND", Get("anything"));
  EXPECT_TRUE(Dump().empty());
}

TEST_F(DBTest, PutAndGetFromMemtable) {
  OpenDB();
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
}

TEST_F(DBTest, GetFromDiskAfterFlush) {
  OpenDB();
  ASSERT_TRUE(Put("foo", "disk-value").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ("disk-value", Get("foo"));
  EXPECT_GT(db_->TotalSstBytes(), 0u);
}

TEST_F(DBTest, DeleteHidesOlderVersions) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, WriteThenReadManyAcrossFlushes) {
  OpenDB();
  Random rnd(301);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(1000));
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(db_->Flush().ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key)) << key;
  }
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, ScanIsSortedAndSuppressesTombstones) {
  OpenDB();
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(Put("d", "4").ok());

  auto dump = Dump();
  ASSERT_EQ(3u, dump.size());
  EXPECT_EQ("1", dump["a"]);
  EXPECT_EQ(0u, dump.count("b"));
  EXPECT_EQ("3", dump["c"]);
  EXPECT_EQ("4", dump["d"]);
}

TEST_F(DBTest, IteratorSeek) {
  OpenDB();
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(Put(key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto iter = db_->NewIterator(ReadOptions());
  iter->Seek("k0051");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k0052", iter->key().ToString());
}

TEST_F(DBTest, SnapshotReadsOldState) {
  OpenDB();
  ASSERT_TRUE(Put("k", "old").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "new").ok());
  ASSERT_TRUE(db_->Flush().ok());

  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ("old", value);
  EXPECT_EQ("new", Get("k"));
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotSurvivesCompaction) {
  OpenDB();
  ASSERT_TRUE(Put("k", "old").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "new").ok());
  ASSERT_TRUE(db_->CompactRange().ok());

  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ("old", value);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, RecoverFromWal) {
  OpenDB();
  ASSERT_TRUE(Put("persist", "me").ok());
  ASSERT_TRUE(Put("and", "me-too").ok());
  // No flush: data is only in WAL + memtable.
  Reopen();
  EXPECT_EQ("me", Get("persist"));
  EXPECT_EQ("me-too", Get("and"));
}

TEST_F(DBTest, RecoverFromSstAndWal) {
  OpenDB();
  ASSERT_TRUE(Put("in-sst", "flushed").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Put("in-wal", "logged").ok());
  Reopen();
  EXPECT_EQ("flushed", Get("in-sst"));
  EXPECT_EQ("logged", Get("in-wal"));
}

TEST_F(DBTest, RecoverAppliesDeletes) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  Reopen();
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, RecoverManyWrites) {
  OpenDB();
  std::map<std::string, std::string> model;
  Random rnd(11);
  for (int i = 0; i < 2000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(400));
    std::string value = "val" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  Reopen();
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, CompactRangeReducesRunsAndPreservesData) {
  OpenDB();
  std::map<std::string, std::string> model;
  Random rnd(42);
  for (int i = 0; i < 4000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(800));
    std::string value = std::string(32, static_cast<char>('a' + i % 26));
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  // After full compaction the tree collapses to very few runs.
  EXPECT_LE(db_->TotalSortedRuns(), 2);
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, UpdatesReclaimSpaceViaCompaction) {
  OpenDB();
  const std::string big(512, 'x');
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(Put("key" + std::to_string(i), big).ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  uint64_t after = db_->TotalSstBytes();
  // 50 keys x ~512B = ~25KB live; compaction must have dropped the other
  // 19 rounds of shadowed versions.
  EXPECT_LT(after, 120u << 10);
  EXPECT_EQ(50u, db_->CountLiveEntries());
}

TEST_F(DBTest, TombstonesPurgedAtBottomLevel) {
  OpenDB();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(0u, db_->CountLiveEntries());
  EXPECT_GT(db_->statistics()->tombstones_dropped.load(), 0u);
  // Everything (values + tombstones) is gone: the tree is almost empty.
  EXPECT_LT(db_->TotalSstBytes(), 4u << 10);
}

TEST_F(DBTest, SingleDeleteRemovesKey) {
  OpenDB();
  ASSERT_TRUE(Put("once", "written").ok());
  ASSERT_TRUE(db_->SingleDelete(WriteOptions(), "once").ok());
  EXPECT_EQ("NOT_FOUND", Get("once"));
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ("NOT_FOUND", Get("once"));
  EXPECT_EQ(0u, db_->CountLiveEntries());
}

TEST_F(DBTest, DeleteRangeRemovesSpan) {
  OpenDB();
  for (char c = 'a'; c <= 'j'; ++c) {
    ASSERT_TRUE(Put(std::string(1, c), "v").ok());
  }
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "c", "g").ok());
  auto dump = Dump();
  EXPECT_EQ(6u, dump.size());  // a, b, g, h, i, j.
  EXPECT_EQ(1u, dump.count("a"));
  EXPECT_EQ(0u, dump.count("c"));
  EXPECT_EQ(0u, dump.count("f"));
  EXPECT_EQ(1u, dump.count("g"));
}

TEST_F(DBTest, StatisticsTrackReadsAndWrites) {
  OpenDB();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  Get("key1");
  Get("definitely-absent");
  Statistics* stats = db_->statistics();
  EXPECT_EQ(100u, stats->writes.load());
  EXPECT_EQ(2u, stats->point_lookups.load());
  EXPECT_EQ(1u, stats->point_lookup_found.load());
  EXPECT_GE(stats->flushes.load(), 1u);
}

TEST_F(DBTest, FilterSkipsRunsForAbsentKeys) {
  OpenDB();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put("present" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  db_->statistics()->Reset();
  // Absent keys *inside* the run's key range, so fence pointers cannot rule
  // them out and only the Bloom filter saves the probe.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ("NOT_FOUND", Get("present" + std::to_string(i) + "x"));
  }
  // With 10-bit Blooms, nearly all absent lookups skip every run.
  EXPECT_GT(db_->statistics()->runs_skipped_by_filter.load(), 150u);
  EXPECT_LT(db_->statistics()->runs_probed.load(), 20u);
}

TEST_F(DBTest, NoSlowdownWriteFailsInsteadOfStalling) {
  options_.max_write_buffer_number = 1;  // Any full memtable = hard stall.
  options_.write_buffer_size = 4096;
  OpenDB();
  WriteOptions no_stall;
  no_stall.no_slowdown = true;
  // Fill until the write path would stall; must see Busy, not a hang.
  bool saw_busy = false;
  for (int i = 0; i < 10000 && !saw_busy; ++i) {
    Status s = db_->Put(no_stall, "key" + std::to_string(i),
                        std::string(128, 'v'));
    if (s.IsBusy()) {
      saw_busy = true;
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  EXPECT_TRUE(saw_busy);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
}

TEST_F(DBTest, BinaryKeysAndValues) {
  OpenDB();
  std::string key("\x00\x01\x02\xff\xfe", 5);
  std::string value("\x00binary\xff", 8);
  ASSERT_TRUE(Put(key, value).ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(value, Get(key));
}

TEST_F(DBTest, LargeValues) {
  OpenDB();
  std::string big(200 << 10, 'B');  // Bigger than a memtable.
  ASSERT_TRUE(Put("big", big).ok());
  EXPECT_EQ(big, Get("big"));
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(big, Get("big"));
  Reopen();
  EXPECT_EQ(big, Get("big"));
}

TEST_F(DBTest, MissingDbFailsWithoutCreateIfMissing) {
  options_.create_if_missing = false;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "/no-such-db", &db);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(DBTest, ErrorIfExists) {
  OpenDB();
  db_.reset();
  options_.error_if_exists = true;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(DBTest, DestroyRemovesEverything) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());
  std::vector<std::string> children;
  Status ls = env_.GetChildren("/db", &children);
  EXPECT_TRUE(ls.ok() || ls.IsNotFound()) << ls.ToString();
  EXPECT_TRUE(children.empty());
}

// ---------------------------------------------------------------------------
// Layout matrix: the same correctness suite must hold for every disk data
// layout of tutorial §2.2.2 and every memtable rep of §2.2.1.
// ---------------------------------------------------------------------------

struct LayoutParam {
  DataLayout layout;
  MemTableRepType rep;
  CompactionGranularity granularity;
  const char* name;
};

class DBLayoutTest : public ::testing::TestWithParam<LayoutParam> {
 protected:
  DBLayoutTest() {
    options_.env = &env_;
    options_.write_buffer_size = 4 << 10;
    options_.max_bytes_for_level_base = 32 << 10;
    options_.target_file_size = 8 << 10;
    options_.block_size = 1024;
    options_.size_ratio = 3;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    options_.data_layout = GetParam().layout;
    options_.memtable_rep = GetParam().rep;
    options_.compaction_granularity = GetParam().granularity;
    if (GetParam().layout == DataLayout::kLeveling) {
      options_.level0_file_num_compaction_trigger = 1;
    }
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBLayoutTest, RandomWorkloadMatchesModel) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  Random rnd(GetParam().layout == DataLayout::kTiering ? 7 : 13);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(600));
    if (rnd.OneIn(10)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = "v" + std::to_string(i);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Point lookups agree with the model.
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
  // Scan agrees with the model.
  std::map<std::string, std::string> dumped;
  auto iter = db_->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dumped[iter->key().ToString()] = iter->value().ToString();
  }
  EXPECT_EQ(model, dumped);

  // Survives reopen.
  db_.reset();
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string got;
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
}

TEST_P(DBLayoutTest, TieredLevelsRespectRunBounds) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  Random rnd(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(rnd.Uniform(2000)),
                         std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  // After quiescing, no tiered level may exceed its run trigger and no
  // leveled level (except transient L0) holds overlapping files.
  // (The run-count bound is exactly the tiering invariant of §2.2.2.)
  EXPECT_GE(db_->TotalSortedRuns(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DBLayoutTest,
    ::testing::Values(
        LayoutParam{DataLayout::kLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "Leveling"},
        LayoutParam{DataLayout::kTiering, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "Tiering"},
        LayoutParam{DataLayout::kLazyLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "LazyLeveling"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kPartial, "OneLevelingPartial"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kVector,
                    CompactionGranularity::kPartial, "VectorMemtable"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kHashSkipList,
                    CompactionGranularity::kPartial, "HashSkipListMemtable"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kHashLinkList,
                    CompactionGranularity::kPartial, "HashLinkListMemtable"}),
    [](const ::testing::TestParamInfo<LayoutParam>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// WiscKey key-value separation
// ---------------------------------------------------------------------------

class KvSepTest : public ::testing::Test {
 protected:
  KvSepTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.kv_separation = true;
    options_.kv_separation_threshold = 100;
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvSepTest, LargeValuesRoundTripThroughVlog) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(500, 'V');
  ASSERT_TRUE(db_->Put(WriteOptions(), "big", big).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small", "tiny").ok());
  ASSERT_TRUE(db_->Flush().ok());

  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "big", &value).ok());
  EXPECT_EQ(big, value);
  ASSERT_TRUE(db_->Get(ReadOptions(), "small", &value).ok());
  EXPECT_EQ("tiny", value);
  EXPECT_GT(db_->vlog()->TotalBytes(), 0u);
}

TEST_F(KvSepTest, ScansResolvePointers) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(300, 'x');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i), big).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto iter = db_->NewIterator(ReadOptions());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(big, iter->value().ToString());
    ++count;
  }
  EXPECT_EQ(50, count);
}

TEST_F(KvSepTest, CompactionTracksVlogGarbage) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(400, 'y');
  // Overwrite the same keys repeatedly: old vlog entries become garbage
  // when compaction drops their pointers.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), big).ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_GT(db_->vlog()->GarbageBytes(), 0u);
}

TEST_F(KvSepTest, VlogGcReclaimsDeadValues) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(400, 'z');
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), big).ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  ASSERT_TRUE(db_->GarbageCollectVlog().ok());
  ASSERT_TRUE(db_->Flush().ok());

  // All 20 keys still readable after GC rewrote the logs.
  std::string value;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ(big, value);
  }
}

// ---------------------------------------------------------------------------
// MultiGet: the batched lookup must agree with per-key Get everywhere.
// ---------------------------------------------------------------------------

TEST_F(DBTest, MultiGetMatchesGetAcrossTree) {
  OpenDB();
  // Enough data to spread keys over memtable, L0, and deeper levels.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  for (int i = 600; i < 650; ++i) {  // Fresh keys stay in the memtable.
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }

  std::vector<std::string> key_storage;
  for (int i = 0; i < 700; i += 7) {  // Includes absent keys >= 650.
    key_storage.push_back("key" + std::to_string(i));
  }
  key_storage.push_back("never-written");
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());

  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_EQ(keys.size(), statuses.size());
  ASSERT_EQ(keys.size(), values.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string expected = Get(key_storage[i]);
    if (expected == "NOT_FOUND") {
      EXPECT_TRUE(statuses[i].IsNotFound()) << key_storage[i];
    } else {
      ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
      EXPECT_EQ(expected, values[i]) << key_storage[i];
    }
  }
}

TEST_F(DBTest, MultiGetSeesDeletionsAndOverwrites) {
  OpenDB();
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(Put("c", "3-new").ok());  // Newer version shadows the flushed one.

  std::vector<Slice> keys = {"a", "b", "c", "d"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ("1", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());  // Tombstone beats the flushed put.
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ("3-new", values[2]);
  EXPECT_TRUE(statuses[3].IsNotFound());  // Never written.
}

TEST_F(DBTest, MultiGetHonorsSnapshots) {
  OpenDB();
  ASSERT_TRUE(Put("x", "old-x").ok());
  ASSERT_TRUE(Put("y", "old-y").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("x", "new-x").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "y").ok());
  ASSERT_TRUE(Put("z", "new-z").ok());
  ASSERT_TRUE(db_->Flush().ok());

  std::vector<Slice> keys = {"x", "y", "z"};
  std::vector<std::string> values;
  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::vector<Status> statuses = db_->MultiGet(at_snap, keys, &values);
  EXPECT_EQ("old-x", values[0]);
  EXPECT_EQ("old-y", values[1]);
  EXPECT_TRUE(statuses[2].IsNotFound());  // "z" was written after the snap.

  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_EQ("new-x", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_EQ("new-z", values[2]);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, MultiGetResolvesMergeChains) {
  options_.merge_operator = NewStringAppendOperator(',');
  OpenDB();
  ASSERT_TRUE(Put("m", "base").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "m", "op1").ok());
  ASSERT_TRUE(db_->Flush().ok());  // Split the chain across storage tiers.
  ASSERT_TRUE(db_->Merge(WriteOptions(), "m", "op2").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "pure", "solo").ok());

  std::vector<Slice> keys = {"m", "pure"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ("base,op1,op2", values[0]);
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ("solo", values[1]);
  // Batched and per-key resolution must agree.
  EXPECT_EQ(values[0], Get("m"));
  EXPECT_EQ(values[1], Get("pure"));
}

TEST_F(DBTest, MultiGetEmptyAndDuplicateKeys) {
  OpenDB();
  ASSERT_TRUE(Put("dup", "val").ok());

  std::vector<std::string> values;
  std::vector<Status> statuses =
      db_->MultiGet(ReadOptions(), {}, &values);
  EXPECT_TRUE(statuses.empty());
  EXPECT_TRUE(values.empty());

  std::vector<Slice> keys = {"dup", "dup", "dup"};
  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok());
    EXPECT_EQ("val", values[i]);
  }
  EXPECT_GE(db_->statistics()->multiget_batches.load(), 2u);
  EXPECT_GE(db_->statistics()->multiget_keys.load(), 3u);
}

// ---------------------------------------------------------------------------
// Point lookups against a reference model, and the batch/readahead counters
// must actually move.
// ---------------------------------------------------------------------------

/// Writes puts, overwrites, deletions and merge operands spread over the
/// memtable, L0 and deeper levels, mirroring each write into a std::map, then
/// checks every key's MultiGet and Get result, at the live sequence and at a
/// snapshot taken mid-history, against the map. With no block cache every
/// data-block read is cold; with one, a second pass is served warm. Values
/// are `value_bytes` long, so a KV-separated DB resolves value-log pointers.
void CheckLookupsAgainstModel(Options options, size_t value_bytes) {
  options.merge_operator = NewStringAppendOperator(',');
  auto value_of = [&](const std::string& tag, int i) {
    std::string v = tag + std::to_string(i);
    v.resize(std::max(v.size(), value_bytes), '.');
    return v;
  };
  for (size_t cache : {size_t{0}, size_t{1} << 20}) {
    options.block_cache_capacity = cache;
    const std::string name = cache == 0 ? "/model_cold" : "/model_warm";
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, name, &db).ok());
    std::map<std::string, std::string> model;
    auto key_of = [](int i) { return "key" + std::to_string(i); };
    for (int i = 0; i < 600; ++i) {
      model[key_of(i)] = value_of("v", i);
      ASSERT_TRUE(db->Put(WriteOptions(), key_of(i), model[key_of(i)]).ok());
    }
    ASSERT_TRUE(db->WaitForBackgroundWork().ok());
    const SequenceNumber snap = db->GetSnapshot();
    const std::map<std::string, std::string> snap_model = model;
    for (int i = 0; i < 600; i += 5) {
      model[key_of(i)] = value_of("over", i);
      ASSERT_TRUE(db->Put(WriteOptions(), key_of(i), model[key_of(i)]).ok());
    }
    for (int i = 2; i < 600; i += 11) {
      model.erase(key_of(i));
      ASSERT_TRUE(db->Delete(WriteOptions(), key_of(i)).ok());
    }
    for (int i = 3; i < 600; i += 13) {
      auto it = model.find(key_of(i));
      model[key_of(i)] = it == model.end() ? "m" : it->second + ",m";
      ASSERT_TRUE(db->Merge(WriteOptions(), key_of(i), "m").ok());
    }
    ASSERT_TRUE(db->Flush().ok());

    std::vector<std::string> key_storage;
    for (int i = 0; i < 660; i += 3) {  // Includes absent keys >= 600.
      key_storage.push_back(key_of(i));
    }
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    for (int pass = 0; pass < (cache == 0 ? 1 : 2); ++pass) {
      for (bool use_snapshot : {false, true}) {
        ReadOptions ro;
        if (use_snapshot) {
          ro.snapshot_seqno = snap;
        }
        const std::map<std::string, std::string>& expected =
            use_snapshot ? snap_model : model;
        std::vector<std::string> values;
        std::vector<Status> statuses = db->MultiGet(ro, keys, &values);
        ASSERT_EQ(keys.size(), statuses.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          const std::string where = name + " pass=" + std::to_string(pass) +
                                    " snapshot=" +
                                    std::to_string(use_snapshot) + " " +
                                    key_storage[i];
          std::string got;
          Status s = db->Get(ro, key_storage[i], &got);
          auto it = expected.find(key_storage[i]);
          if (it == expected.end()) {
            EXPECT_TRUE(statuses[i].IsNotFound()) << where;
            EXPECT_TRUE(s.IsNotFound()) << where;
            continue;
          }
          ASSERT_TRUE(statuses[i].ok()) << where << ": "
                                        << statuses[i].ToString();
          EXPECT_EQ(it->second, values[i]) << where;
          ASSERT_TRUE(s.ok()) << where << ": " << s.ToString();
          EXPECT_EQ(it->second, got) << where;
        }
      }
    }
    db->ReleaseSnapshot(snap);
  }
}

TEST_F(DBTest, MultiGetBatchedAgreesWithSerialEverywhere) {
  CheckLookupsAgainstModel(options_, 0);
}

TEST_F(DBTest, KvSeparatedLookupsMatchModel) {
  options_.kv_separation = true;
  options_.kv_separation_threshold = 32;
  CheckLookupsAgainstModel(options_, 48);
}

TEST_F(DBTest, BatchedMultiGetMovesIoBatchStats) {
  OpenDB();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  db_->statistics()->Reset();

  // Cold cache: the batched path must issue at least one real MultiRead.
  std::vector<std::string> key_storage;
  for (int i = 0; i < 400; i += 25) {
    key_storage.push_back("key" + std::to_string(i));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
  }

  const Statistics* stats = db_->statistics();
  EXPECT_GE(stats->io_batches.load(), 1u);
  EXPECT_GE(stats->io_batch_reads.load(), stats->io_batches.load());
  EXPECT_GT(stats->io_batch_bytes.load(), 0u);
  // Each batched block read still lands in the block cache: a second pass
  // resolves from cache without new submissions.
  const uint64_t batches_after_cold = stats->io_batches.load();
  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_EQ(batches_after_cold, stats->io_batches.load());

  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos,
            summary.find(std::string("crc32c=") + crc32c::BackendName()))
      << summary;
  EXPECT_NE(std::string::npos, summary.find("batched io:")) << summary;
  EXPECT_NE(std::string::npos, summary.find("readahead")) << summary;
}

TEST_F(DBTest, ScanReadaheadMovesStatsAndPreservesContents) {
  OpenDB();
  std::string value(500, 'r');
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(1000 + i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  db_->statistics()->Reset();

  // A scan with readahead disabled touches the buffer stats not at all.
  ReadOptions no_ra;
  no_ra.readahead_bytes = 0;
  no_ra.fill_cache = false;
  {
    std::map<std::string, std::string> seen;
    auto iter = db_->NewIterator(no_ra);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(model, seen);
  }
  EXPECT_EQ(0u, db_->statistics()->readahead_hits.load());
  EXPECT_EQ(0u, db_->statistics()->readahead_misses.load());

  // With readahead on, sequential block loads hit the prefetch buffer.
  ReadOptions with_ra;
  with_ra.readahead_bytes = 256 << 10;
  with_ra.fill_cache = false;
  {
    std::map<std::string, std::string> seen;
    auto iter = db_->NewIterator(with_ra);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(model, seen);
  }
  EXPECT_GT(db_->statistics()->readahead_hits.load(), 0u);
  EXPECT_GT(db_->statistics()->readahead_misses.load(), 0u);
  // The whole point: far fewer device trips than block loads.
  EXPECT_GT(db_->statistics()->readahead_hits.load(),
            db_->statistics()->readahead_misses.load());
}

// ---------------------------------------------------------------------------
// Learned per-SSTable indexes: fence and learned tables must be
// indistinguishable to every read path, and must coexist in one tree.
// ---------------------------------------------------------------------------

TEST_F(DBTest, MixedIndexTablesCoexistAcrossReopen) {
  // Phase 1: classic fence indexes.
  options_.index_type = IndexType::kBinarySearchFence;
  OpenDB();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 300; ++i) {
    std::string key = "fence" + std::to_string(1000 + i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Phase 2: flip the knob and reopen. Old tables keep their fence indexes;
  // new flushes get learned ones. Both kinds serve reads from the same tree.
  options_.index_type = IndexType::kLearnedPLR;
  Reopen();
  for (int i = 0; i < 300; ++i) {
    std::string key = "learned" + std::to_string(1000 + i);
    model[key] = "w" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key)) << key;
  }
  EXPECT_EQ(model, Dump());

  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos, summary.find("idx learned=")) << summary;
  EXPECT_NE(std::string::npos, summary.find("learned index: hits=")) << summary;

  // Compaction rewrites everything with the current knob: afterwards the
  // whole dataset is still intact behind learned indexes only.
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(model, Dump());
  EXPECT_GT(db_->statistics()->learned_index_hits.load(), 0u);
}

TEST_F(DBTest, LearnedMatchesFenceRandomizedSweep) {
  // Build the identical dataset under both index types and require every
  // read path -- Get, MultiGet, forward scan, seeks -- to agree exactly.
  Random rnd(20260809);
  std::map<std::string, std::string> model;
  std::vector<std::string> dataset_keys;
  for (int i = 0; i < 2500; ++i) {
    std::string key = "k" + std::to_string(rnd.Uniform(1000000));
    model[key] = "value" + std::to_string(i);
    dataset_keys.push_back(key);
  }
  std::vector<std::string> probe_keys;
  for (int i = 0; i < 600; ++i) {
    if (rnd.OneIn(3)) {
      probe_keys.push_back("k" + std::to_string(rnd.Uniform(1000000)));
    } else {
      probe_keys.push_back(dataset_keys[rnd.Uniform(dataset_keys.size())]);
    }
  }

  struct Answers {
    std::vector<std::string> gets;
    std::vector<std::string> multigets;
    std::map<std::string, std::string> scan;
    std::vector<std::string> seeks;
  };
  auto run = [&](IndexType index_type) {
    options_.index_type = index_type;
    db_.reset();
    EXPECT_TRUE(DestroyDB(options_, "/db").ok());
    OpenDB();
    for (const auto& [key, value] : model) {
      EXPECT_TRUE(Put(key, value).ok());
    }
    EXPECT_TRUE(db_->Flush().ok());
    EXPECT_TRUE(db_->WaitForBackgroundWork().ok());

    Answers out;
    for (const std::string& key : probe_keys) {
      out.gets.push_back(Get(key));
    }
    std::vector<Slice> keys(probe_keys.begin(), probe_keys.end());
    std::vector<std::string> values;
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    for (size_t i = 0; i < keys.size(); ++i) {
      out.multigets.push_back(statuses[i].ok() ? values[i]
                              : statuses[i].IsNotFound()
                                  ? "NOT_FOUND"
                                  : "ERROR: " + statuses[i].ToString());
    }
    out.scan = Dump();
    auto iter = db_->NewIterator(ReadOptions());
    for (size_t i = 0; i < probe_keys.size(); i += 7) {
      iter->Seek(probe_keys[i]);
      out.seeks.push_back(iter->Valid() ? iter->key().ToString() + "=" +
                                              iter->value().ToString()
                                        : "END");
    }
    EXPECT_TRUE(iter->status().ok());
    return out;
  };

  Answers fence = run(IndexType::kBinarySearchFence);
  Answers learned = run(IndexType::kLearnedPLR);
  EXPECT_EQ(fence.gets, learned.gets);
  EXPECT_EQ(fence.multigets, learned.multigets);
  EXPECT_EQ(fence.scan, learned.scan);
  EXPECT_EQ(fence.seeks, learned.seeks);
  EXPECT_EQ(model, learned.scan);
  EXPECT_GT(db_->statistics()->learned_index_hits.load(), 0u);
}

TEST_F(DBTest, PerLevelIndexTypeOverride) {
  // L0 keeps cheap-to-build fences (the per-level override); every deeper
  // level falls back to the global knob and gets learned indexes.
  options_.index_type = IndexType::kLearnedPLR;
  options_.index_type_per_level = {IndexType::kBinarySearchFence};
  OpenDB();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 600; ++i) {
    std::string key = "pl" + std::to_string(100000 + i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(model, Dump());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << key;
  }
  // Compaction pushed data to level >= 1, which the override maps to
  // learned indexes.
  EXPECT_GT(db_->statistics()->learned_index_hits.load() +
                db_->statistics()->learned_index_fallbacks.load(),
            0u);
}

// ---------------------------------------------------------------------------
// Scan path: one merge child per sorted run. A leveled level is read as one
// concatenated run whose files are opened only when the scan reaches them.
// ---------------------------------------------------------------------------

/// The tree shape LevelsDebugString() prints ("level L (kind): N files"),
/// summed over shards.
struct TreeShape {
  int l0_files = 0;
  int leveled_levels = 0;     // Non-empty leveled levels below L0.
  int tiered_runs = 0;        // Files of tiered levels below L0.
  int max_leveled_files = 0;  // Largest leveled level below L0.
  int total_files = 0;
};

TreeShape ParseTreeShape(const std::string& levels) {
  TreeShape shape;
  size_t pos = 0;
  while ((pos = levels.find("level ", pos)) != std::string::npos) {
    int level = 0;
    int files = 0;
    char kind[16] = {};
    if (std::sscanf(levels.c_str() + pos, "level %d (%15[a-z]): %d files",
                    &level, kind, &files) == 3) {
      shape.total_files += files;
      if (level == 0) {
        shape.l0_files += files;
      } else if (std::string(kind) == "leveled") {
        ++shape.leveled_levels;
        shape.max_leveled_files = std::max(shape.max_leveled_files, files);
      } else {
        shape.tiered_runs += files;
      }
    }
    ++pos;
  }
  return shape;
}

/// Names of the table files now in `dir`.
std::set<std::string> TableFiles(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  std::set<std::string> tables;
  for (const auto& name : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(name, &number, &type) && type == FileType::kTableFile) {
      tables.insert(name);
    }
  }
  return tables;
}

/// Number of distinct data blocks, over every table file in `dir`, that
/// hold one of `keys` — read with standalone TableReaders, so the DB's
/// block cache is not touched.
size_t CountDataBlocksHolding(Env* env, const std::string& dir,
                              const std::vector<std::string>& keys) {
  InternalKeyComparator icmp(BytewiseComparator());
  TableReaderOptions topts;
  topts.comparator = &icmp;
  std::set<std::pair<uint64_t, uint64_t>> blocks;  // (file, block offset)
  for (const auto& name : TableFiles(env, dir)) {
    uint64_t number;
    FileType type;
    EXPECT_TRUE(ParseFileName(name, &number, &type));
    const std::string path = dir + "/" + name;
    uint64_t size = 0;
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env->GetFileSize(path, &size).ok());
    EXPECT_TRUE(env->NewRandomAccessFile(path, &file).ok());
    std::unique_ptr<TableReader> table;
    EXPECT_TRUE(
        TableReader::Open(topts, std::move(file), size, number, &table).ok());
    for (const auto& key : keys) {
      LookupKey lkey(key, kMaxSequenceNumber);
      bool found = false;
      ValueType type;
      std::string entry_value;
      EXPECT_TRUE(table
                      ->InternalGet(ReadOptions(), lkey.internal_key(), &found,
                                    &type, &entry_value)
                      .ok());
      BlockHandle handle;
      Status s;
      if (found && table->LocateDataBlock(lkey.internal_key(), &handle, &s)) {
        blocks.insert({number, handle.offset()});
      }
    }
  }
  return blocks.size();
}

std::string ScanKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

TEST_F(DBTest, ScanBlockLookupsBoundedBySortedRuns) {
  // Exact I/O gate: a Seek plus 50 Next on a leveled tree of many small
  // files looks up at most one block per sorted run (where the Seek lands)
  // plus the data blocks holding the 51 keys it returns — independent of
  // how many files the levels hold.
  options_.num_shards = 1;
  options_.data_layout = DataLayout::kLeveling;
  options_.target_file_size = 2 << 10;
  options_.block_size = 512;
  options_.block_cache_capacity = 8 << 20;  // Holds every block.
  OpenDB();
  constexpr int kKeys = 4000;
  std::vector<int> order(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  Random rnd(301);
  for (int i = kKeys - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rnd.Uniform(static_cast<uint32_t>(i + 1))]);
  }
  // Every key is written once, so each returned key is one table entry.
  for (int i : order) {
    ASSERT_TRUE(Put(ScanKey(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  const TreeShape shape = ParseTreeShape(db_->LevelsDebugString());
  ASSERT_GE(shape.max_leveled_files, 20) << db_->LevelsDebugString();
  // Only live tables are on disk, so the block count below is exact.
  ASSERT_EQ(static_cast<size_t>(shape.total_files),
            TableFiles(&env_, "/db").size());

  // Warm the table and block caches: the measured scan then performs only
  // block-cache lookups, no table opens.
  ASSERT_EQ(static_cast<size_t>(kKeys), Dump().size());

  const CacheStats before = db_->block_cache()->GetStats();
  std::vector<std::string> returned;
  {
    auto iter = db_->NewIterator(ReadOptions());
    iter->Seek(ScanKey(kKeys / 2));
    for (int i = 0; i <= 50 && iter->Valid(); ++i) {
      returned.push_back(iter->key().ToString());
      if (i < 50) {
        iter->Next();
      }
    }
    ASSERT_TRUE(iter->status().ok());
  }
  const CacheStats after = db_->block_cache()->GetStats();
  ASSERT_EQ(51u, returned.size());
  EXPECT_EQ(ScanKey(kKeys / 2), returned.front());
  EXPECT_EQ(ScanKey(kKeys / 2 + 50), returned.back());

  const uint64_t lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  const size_t blocks = CountDataBlocksHolding(&env_, "/db", returned);
  const uint64_t bound = static_cast<uint64_t>(
      shape.l0_files + shape.leveled_levels + shape.tiered_runs) + blocks;
  EXPECT_LE(lookups, bound) << "blocks=" << blocks << "\n"
                            << db_->LevelsDebugString();
}

TEST_F(DBTest, IteratorOutlivesCompactionOfItsLevel) {
  // An iterator does not pin its Version: CompactRange deletes every file
  // the iterator was built over, and the files it had not reached yet must
  // still be read through the readers it resolved when it was built.
  options_.num_shards = 1;
  options_.data_layout = DataLayout::kLeveling;
  options_.target_file_size = 2 << 10;
  options_.block_cache_capacity = 0;  // Every block comes from its file.
  OpenDB();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    model[ScanKey(i)] = "value" + std::to_string(i);
    ASSERT_TRUE(Put(ScanKey(i), model[ScanKey(i)]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  ASSERT_GE(ParseTreeShape(db_->LevelsDebugString()).max_leveled_files, 20)
      << db_->LevelsDebugString();

  const std::set<std::string> tables_before = TableFiles(&env_, "/db");
  auto iter = db_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  std::map<std::string, std::string> seen;
  for (int i = 0; i < 10 && iter->Valid(); ++i, iter->Next()) {
    seen[iter->key().ToString()] = iter->value().ToString();
  }

  // Pushes every level down to the last one, rewriting and deleting every
  // file the iterator knows.
  ASSERT_TRUE(db_->CompactRange().ok());
  for (const auto& name : TableFiles(&env_, "/db")) {
    ASSERT_EQ(0u, tables_before.count(name)) << name << " survived";
  }

  for (; iter->Valid(); iter->Next()) {
    seen[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(model, seen);
  // A fresh iterator reads the compacted tree.
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, ScanReportsReadFaultPastFileBoundary) {
  // Each table holds one data block, so after the Seek every block read is
  // the first read of a file the scan reaches by crossing a boundary. A
  // fault there must reach Iterator::status().
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  options_.num_shards = 1;
  options_.data_layout = DataLayout::kLeveling;
  options_.target_file_size = 4 << 10;
  options_.block_size = 4 << 10;
  options_.block_cache_capacity = 0;
  std::unique_ptr<DB> db;  // Declared after fault_env: closes first.
  ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), ScanKey(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db->CompactRange().ok());
  ASSERT_GE(ParseTreeShape(db->LevelsDebugString()).max_leveled_files, 20)
      << db->LevelsDebugString();

  ReadOptions ro;
  ro.readahead_bytes = 0;
  auto iter = db->NewIterator(ro);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ(ScanKey(0), iter->key().ToString());

  // The next table read, whichever file it is in, fails once.
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 0;
  rule.max_failures = 1;
  fault_env.AddRule(rule);

  int returned = 0;
  std::string last;
  for (; iter->Valid(); iter->Next()) {
    ASSERT_LT(last, iter->key().ToString());  // Still sorted.
    last = iter->key().ToString();
    ++returned;
  }
  EXPECT_EQ(1u, fault_env.injected_faults());
  EXPECT_TRUE(iter->status().IsIOError()) << iter->status().ToString();
  // The fault hit a file past the first one, and only that file was lost.
  EXPECT_GT(returned, 1);
  EXPECT_LT(returned, 2000);
}

TEST_F(DBTest, ReadFaultOnColdBlockFailsOnlyItsKey) {
  // A scripted read fault on one cold table block reaches Get's status, and
  // in a MultiGet the status of the key that needed the block, while the
  // batch's other keys still succeed.
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  options_.num_shards = 1;
  options_.index_type = IndexType::kBinarySearchFence;  // No lazy fences.
  options_.block_cache_capacity = 0;  // Every data-block read is cold.
  std::unique_ptr<DB> db;  // Declared after fault_env: closes first.
  ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), ScanKey(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());

  // Keys far enough apart to sit in different data blocks.
  std::vector<std::string> key_storage;
  for (int i = 0; i < 400; i += 80) {
    key_storage.push_back(ScanKey(i));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::string value;
  for (const std::string& key : key_storage) {
    // Opens every table reader first: an open reads the file too.
    ASSERT_TRUE(db->Get(ReadOptions(), key, &value).ok()) << key;
  }

  FaultRule rule;  // The next table read fails, once.
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 0;
  rule.max_failures = 1;
  fault_env.AddRule(rule);
  Status s = db->Get(ReadOptions(), key_storage[0], &value);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(1u, fault_env.injected_faults());
  ASSERT_TRUE(db->Get(ReadOptions(), key_storage[0], &value).ok());

  fault_env.AddRule(rule);  // A fresh rule: the batch's first read fails.
  std::vector<std::string> values;
  std::vector<Status> statuses = db->MultiGet(ReadOptions(), keys, &values);
  EXPECT_EQ(2u, fault_env.injected_faults());
  int failed = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      EXPECT_EQ(std::string(100, 'v'), values[i]) << key_storage[i];
    } else {
      EXPECT_TRUE(statuses[i].IsIOError()) << statuses[i].ToString();
      ++failed;
    }
  }
  EXPECT_EQ(1, failed);
}

/// Randomized Seek/Next/SeekToFirst scans against a std::map model, over
/// every layout at N = 1 and N = 4, on trees whose leveled levels hold many
/// small files. With `concurrent`, a writer churns the tree (flushes and
/// compactions that delete the files open iterators were built over) while
/// the scans run; it rewrites keys with their model values and deletes
/// absent keys, so the logical contents never change.
class ScanModelSweep
    : public ::testing::TestWithParam<std::tuple<DataLayout, int, bool>> {};

std::string SweepKey(uint32_t i) {
  // Four first bytes, one per uniform shard range at N = 4.
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%ck%05u",
                static_cast<char>(0x10 + 0x40 * (i % 4)), i / 4);
  return buf;
}

TEST_P(ScanModelSweep, RandomScansMatchModel) {
  const auto [layout, shards, concurrent] = GetParam();
  MemEnv env;
  Options options;
  options.env = &env;
  options.data_layout = layout;
  options.num_shards = shards;
  options.write_buffer_size = 8 << 10;
  options.target_file_size = 1 << 10;
  options.max_bytes_for_level_base = 16 << 10;
  options.size_ratio = 4;
  options.num_levels = 3;  // Lazy leveling's leveled last level fills.
  options.block_size = 256;
  options.background_threads = 2;
  options.filter_policy = NewBloomFilterPolicy(10.0);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/sweep", &db).ok());

  constexpr uint32_t kKeys = 4000;
  std::map<std::string, std::string> model;
  Random rnd(static_cast<uint32_t>(layout) * 10 + shards);
  for (int i = 0; i < 12000; ++i) {
    const std::string key = SweepKey(rnd.Uniform(kKeys));
    if (rnd.OneIn(8)) {
      model.erase(key);
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
    } else {
      model[key] = "v" + std::to_string(i) + std::string(40, 'p');
      ASSERT_TRUE(db->Put(WriteOptions(), key, model[key]).ok());
    }
  }
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  if (layout != DataLayout::kTiering) {
    ASSERT_GE(ParseTreeShape(db->LevelsDebugString()).max_leveled_files, 20)
        << db->LevelsDebugString();
  }

  // One iterator, several randomized positionings, each checked entry by
  // entry against the model.
  auto check_scans = [&](Random* r) {
    auto iter = db->NewIterator(ReadOptions());
    for (int round = 0; round < 12; ++round) {
      auto expected = model.cbegin();
      if (r->OneIn(6)) {
        iter->SeekToFirst();
      } else {
        std::string target = SweepKey(r->Uniform(kKeys));
        if (r->OneIn(2)) {
          target += "~";  // Between keys.
        }
        iter->Seek(target);
        expected = model.lower_bound(target);
      }
      const int steps = r->OneIn(10) ? static_cast<int>(kKeys)
                                     : static_cast<int>(r->Uniform(120));
      for (int step = 0;; ++step) {
        if (expected == model.cend()) {
          ASSERT_FALSE(iter->Valid()) << iter->key().ToString();
          break;
        }
        ASSERT_TRUE(iter->Valid()) << "expected " << expected->first << ": "
                                   << iter->status().ToString();
        ASSERT_EQ(expected->first, iter->key().ToString());
        ASSERT_EQ(expected->second, iter->value().ToString())
            << expected->first << ": " << iter->status().ToString();
        if (step == steps) {
          break;
        }
        iter->Next();
        ++expected;
      }
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  };

  Random scan_rnd(77);
  if (!concurrent) {
    for (int i = 0; i < 20 && !HasFatalFailure(); ++i) {
      check_scans(&scan_rnd);
    }
    return;
  }

  const uint64_t compactions_before = db->statistics()->compactions.load();
  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    Random wrnd(99);
    for (int i = 0; i < 8000; ++i) {
      const std::string key = SweepKey(wrnd.Uniform(kKeys));
      auto it = model.find(key);  // The model is read-only meanwhile.
      Status s = it != model.end()
                     ? db->Put(WriteOptions(), key, it->second)
                     : db->Delete(WriteOptions(), key);
      if (!s.ok()) {
        writer_failed.store(true);
        break;
      }
    }
    writer_done.store(true);
  });
  for (int i = 0; i < 10 || !writer_done.load(); ++i) {
    check_scans(&scan_rnd);
    if (HasFatalFailure()) {
      break;
    }
  }
  writer.join();
  ASSERT_FALSE(writer_failed.load());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  EXPECT_GT(db->statistics()->compactions.load(), compactions_before);
  check_scans(&scan_rnd);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsShards, ScanModelSweep,
    ::testing::Combine(::testing::Values(DataLayout::kLeveling,
                                         DataLayout::kTiering,
                                         DataLayout::kLazyLeveling,
                                         DataLayout::kOneLeveling),
                       ::testing::Values(1, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<DataLayout, int, bool>>&
           info) {
      std::string name = DataLayoutName(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_N" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_Concurrent" : "_Quiescent");
    });

}  // namespace
}  // namespace lsmlab
