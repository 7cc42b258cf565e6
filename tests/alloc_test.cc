// Allocation gates for the point-lookup path. This binary replaces the
// global operator new/delete with counting versions, which is why it is an
// executable of its own: the counters see every heap allocation the calling
// thread makes while a window is open.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/dbformat.h"
#include "io/mem_env.h"
#include "memtable/memtable.h"
#include "util/comparator.h"

namespace {

// Constant-initialized, so touching them inside operator new never runs a
// TLS constructor.
thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (t_counting) {
    ++t_allocations;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    size = (size + alignment - 1) / alignment * alignment;
    p = std::aligned_alloc(alignment, size);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lsmlab {
namespace {

/// Counts the calling thread's heap allocations while in scope.
class AllocationWindow {
 public:
  AllocationWindow() {
    t_allocations = 0;
    t_counting = true;
  }
  ~AllocationWindow() { t_counting = false; }
  uint64_t count() const { return t_allocations; }
};

constexpr int kKeys = 2000;

/// 16-byte keys: longer than libstdc++'s inline string capacity, so a
/// per-lookup key copy would show up as an allocation.
std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%013d", i);
  return buf;
}

std::string Value(int i) {
  return std::string(100, static_cast<char>('a' + i % 26));
}

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() {
    options_.env = &env_;
    options_.write_buffer_size = 4 << 20;  // Loads stay in the memtable.
    options_.block_cache_capacity = 8 << 20;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
  }

  void Load() {
    ASSERT_TRUE(DB::Open(options_, "/alloc", &db_).ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }

  /// Runs one Get per key in [0, kKeys) and returns the largest number of
  /// allocations any single Get made. Every Get must find its value.
  uint64_t MaxAllocationsPerGet() {
    std::string value;
    value.reserve(256);  // The reused caller string of a steady-state loop.
    uint64_t worst = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = Key(i);
      Status s;
      uint64_t allocations = 0;
      {
        AllocationWindow window;
        s = db_->Get(ReadOptions(), key, &value);
        allocations = window.count();
      }
      EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(Value(i), value);
      worst = std::max(worst, allocations);
    }
    return worst;
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(AllocTest, CachedTableGetMakesAtMostOneAllocation) {
  Load();
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  // Warm pass: opens every table reader and fills the block cache.
  MaxAllocationsPerGet();
  const uint64_t probed_before = db_->statistics()->runs_probed.load();
  EXPECT_LE(MaxAllocationsPerGet(), 1u);
  // Every measured Get was served by an SSTable, not a memtable.
  EXPECT_GE(db_->statistics()->runs_probed.load() - probed_before,
            static_cast<uint64_t>(kKeys));
}

TEST_F(AllocTest, MemTableGetMakesNoAllocation) {
  Load();
  MaxAllocationsPerGet();  // Warm pass: the thread's first-use state.
  const uint64_t probed_before = db_->statistics()->runs_probed.load();
  EXPECT_EQ(0u, MaxAllocationsPerGet());
  // No Get reached a table: the keys all sit in the active memtable.
  EXPECT_EQ(probed_before, db_->statistics()->runs_probed.load());
}

TEST(MemTableSeekAllocTest, ReusedSkipListIteratorSeekMakesNoAllocation) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable mem(&icmp, MemTableRepType::kSkipList, 0);
  for (int i = 0; i < kKeys; ++i) {
    mem.Add(static_cast<SequenceNumber>(i + 1), kTypeValue, Key(i), Value(i));
  }
  std::vector<std::string> targets(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    AppendInternalKey(&targets[static_cast<size_t>(i)],
                      ParsedInternalKey(Key(i), kMaxSequenceNumber,
                                        kValueTypeForSeek));
  }
  std::unique_ptr<MemTable::Iterator> iter = mem.NewIterator();
  iter->Seek(targets[0]);  // Warm: the iterator's first seek may set up.
  uint64_t worst = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = Key(i);
    bool positioned = false;
    uint64_t allocations = 0;
    {
      AllocationWindow window;
      iter->Seek(targets[static_cast<size_t>(i)]);
      positioned =
          iter->Valid() && ExtractUserKey(iter->key()) == Slice(key);
      allocations = window.count();
    }
    EXPECT_TRUE(positioned) << key;
    worst = std::max(worst, allocations);
  }
  EXPECT_EQ(0u, worst);
}

}  // namespace
}  // namespace lsmlab
