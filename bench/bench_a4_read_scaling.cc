// A4 — Multi-threaded point-lookup scaling on the low-contention read path.
//
// Claim: with ReadView snapshots (one atomic acquire per Get instead of a
// DB-mutex critical section), per-file pinned table readers (no table-cache
// mutex on warm files), and a sharded block cache, random point lookups on a
// cached working set scale with reader threads — the read path has no shared
// mutable state left to serialize on. MultiGet amortizes the remaining
// per-lookup overheads (view acquire, per-file reader resolution, filter
// probes before any data-block read) across a batch.
//
// Every figure is the median of kRepetitions runs, taken after one
// discarded warm-up pass, and the 1-thread Get figure is measured once and
// reported in both tables. Run with --smoke for a seconds-scale CI sanity
// pass (tiny workload, same code paths).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "bench/bench_util.h"

namespace lsmlab::bench {
namespace {

struct Scale {
  uint64_t num_keys;
  uint64_t gets_per_thread;
  uint64_t multiget_ops;  // Batches per measurement.
  size_t batch_size;
};

constexpr Scale kFull = {20000, 400000, 2000, 64};
constexpr Scale kSmoke = {2000, 2000, 100, 32};

/// Runs per reported figure; the median damps one-off scheduler noise.
constexpr int kRepetitions = 3;

/// Median of kRepetitions calls of `measure`.
double MedianOf(const std::function<double()>& measure) {
  std::vector<double> runs;
  for (int r = 0; r < kRepetitions; ++r) {
    runs.push_back(measure());
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// Tiny per-thread RNG so threads share no state while generating keys.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

struct Fixture {
  TestStack stack;
  uint64_t num_keys = 0;

  void Fill(const Scale& scale) {
    Options options = SmallTreeOptions();
    options.background_threads = 2;
    BenchCheck(stack.Open(options, "/a4"), "Open");
    num_keys = scale.num_keys;

    WorkloadGenerator value_maker(WorkloadSpec::WriteOnly(1));
    WriteOptions wo;
    for (uint64_t i = 0; i < num_keys; ++i) {
      std::string key = WorkloadGenerator::FormatKey(i);
      BenchCheck(stack.db->Put(wo, key, value_maker.MakeValue(key, 100)),
                 "Put");
    }
    BenchCheck(stack.db->Flush(), "Flush");
    BenchCheck(stack.db->WaitForBackgroundWork(), "WaitForBackgroundWork");

    // Warm every file's reader pin and the block cache so the measured
    // phase exercises the steady-state path: view acquire, pinned reader
    // load, filter probe, cached block read.
    ReadOptions ro;
    std::string value;
    for (uint64_t i = 0; i < num_keys; ++i) {
      BenchGet(stack.db.get(), ro, WorkloadGenerator::FormatKey(i), &value);
    }
  }
};

/// Random Gets from `threads` concurrent readers; returns kops/s aggregate.
double MeasureGets(DB* db, uint64_t num_keys, int threads,
                   uint64_t gets_per_thread) {
  std::atomic<uint64_t> total_found{0};
  uint64_t t0 = SystemClock()->NowMicros();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t);
      ReadOptions ro;
      std::string value;
      uint64_t found = 0;
      for (uint64_t i = 0; i < gets_per_thread; ++i) {
        std::string key =
            WorkloadGenerator::FormatKey(NextRand(&rng) % num_keys);
        Status s = db->Get(ro, key, &value);
        if (s.ok()) {
          ++found;
        } else if (!s.IsNotFound()) {
          BenchCheck(s, "Get");
        }
      }
      total_found.fetch_add(found, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  uint64_t micros = SystemClock()->NowMicros() - t0;
  if (total_found.load() != static_cast<uint64_t>(threads) * gets_per_thread) {
    std::fprintf(stderr, "bench: loaded keys went missing\n");
    std::abort();
  }
  return static_cast<double>(threads) * static_cast<double>(gets_per_thread) *
         1000.0 / static_cast<double>(micros);
}

/// Batched lookups through MultiGet; returns keys-resolved kops/s.
double MeasureMultiGet(DB* db, uint64_t num_keys, uint64_t ops,
                       size_t batch_size) {
  uint64_t rng = 0xdeadbeefcafef00dull;
  uint64_t t0 = SystemClock()->NowMicros();
  for (uint64_t i = 0; i < ops; ++i) {
    std::vector<std::string> key_storage;
    key_storage.reserve(batch_size);
    std::vector<Slice> keys;
    keys.reserve(batch_size);
    for (size_t k = 0; k < batch_size; ++k) {
      key_storage.push_back(
          WorkloadGenerator::FormatKey(NextRand(&rng) % num_keys));
      keys.emplace_back(key_storage.back());
    }
    std::vector<std::string> values;
    std::vector<Status> statuses = db->MultiGet(ReadOptions(), keys, &values);
    for (const Status& s : statuses) {
      BenchCheck(s, "MultiGet");
    }
  }
  uint64_t micros = SystemClock()->NowMicros() - t0;
  return static_cast<double>(ops) * static_cast<double>(batch_size) * 1000.0 /
         static_cast<double>(micros);
}

void Run(bool smoke) {
  const Scale& scale = smoke ? kSmoke : kFull;
  Banner("A4: multi-threaded read scaling on the lock-free read path",
         "ReadView snapshots + pinned table readers remove every DB-wide "
         "mutex from steady-state Gets, so cached point lookups scale with "
         "reader threads; MultiGet amortizes per-lookup overhead per batch");

  Fixture fx;
  fx.Fill(scale);
  DB* db = fx.stack.db.get();
  std::printf("\ntree after load:\n%s\n", db->DebugLevelSummary().c_str());

  // One discarded pass before the sweep, so the first row does not pay
  // for cold caches and first-touch state.
  MeasureGets(db, fx.num_keys, 1, scale.gets_per_thread);

  const int thread_counts[] = {1, 2, 4, 8};
  PrintHeader({"threads", "get kops/s", "speedup"});
  double base_kops = 0.0;
  for (int threads : thread_counts) {
    double kops = MedianOf([&] {
      return MeasureGets(db, fx.num_keys, threads, scale.gets_per_thread);
    });
    if (threads == 1) {
      base_kops = kops;
    }
    PrintRow({FmtInt(static_cast<uint64_t>(threads)), Fmt(kops),
              Fmt(base_kops > 0 ? kops / base_kops : 0.0, 2) + "x"});
  }

  std::printf("\n");
  PrintHeader({"api", "kops/s"});
  double mget_kops = MedianOf([&] {
    return MeasureMultiGet(db, fx.num_keys, scale.multiget_ops,
                           scale.batch_size);
  });
  PrintRow({"Get (1 thread)", Fmt(base_kops)});
  PrintRow({"MultiGet (batch=" + FmtInt(scale.batch_size) + ")",
            Fmt(mget_kops)});

  const Statistics* stats = db->statistics();
  std::printf(
      "\nread-path stats: views published=%llu, table cache hits=%llu "
      "misses=%llu, multiget batches=%llu (%llu keys), block cache "
      "shards=%d\n",
      static_cast<unsigned long long>(stats->read_views_published.load()),
      static_cast<unsigned long long>(stats->table_cache_hits.load()),
      static_cast<unsigned long long>(stats->table_cache_misses.load()),
      static_cast<unsigned long long>(stats->multiget_batches.load()),
      static_cast<unsigned long long>(stats->multiget_keys.load()),
      db->block_cache() != nullptr ? db->block_cache()->num_shards() : 0);
  std::printf(
      "\nshape check: with the working set cached, Get throughput grows "
      "with threads (up to the machine's core count) because the steady "
      "state takes no DB-wide mutex; table cache misses stay flat during "
      "measurement (readers come from per-file pins).\n");
}

}  // namespace
}  // namespace lsmlab::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  lsmlab::bench::Run(smoke);
  return 0;
}
