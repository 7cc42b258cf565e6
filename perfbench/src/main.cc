// lsmbench: the end-to-end benchmark of lsmlab. One process runs one
// workload against the public DB API with kClients closed-loop client
// threads, checks every result, and prints its metrics as one JSON line
// (the last line of stdout). README.md beside this directory describes the
// workloads, the metrics and the layers they belong to.
//
//   lsmbench --workload <hot_read|durable_ingest|cold_mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced slices of the same run, prints the per-layer metrics and
// writes the kept spans to <out-dir>.

#include <malloc.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "engine_counters.h"
#include "filter/filter_policy.h"
#include "io/mem_env.h"
#include "latency_histogram.h"
#include "trace.h"
#include "util/coding.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using lsmlab::DB;
using lsmlab::Slice;
using lsmlab::Status;

constexpr int kClients = 4;
constexpr size_t kMultiGetKeys = 16;
constexpr int kScanKeys = 50;
constexpr size_t kBatchKeys = 4;
constexpr size_t kKeyBytes = 20;  // WorkloadGenerator::FormatKey width.
constexpr int kSetupRepeats = 5;  // setup_s is the median of these.
constexpr int kTraceSlices = 10;  // Alternating untraced/traced slices.
constexpr size_t kMaxSpansPerThread = 20000;
constexpr const char* kDbName = "/db";

/// Operation shares in per mille; they sum to 1000.
struct Mix {
  int get, put, batch, multiget, scan;
};

struct Workload {
  const char* name;
  uint64_t num_keys;  // A multiple of kClients.
  size_t value_size;
  size_t block_cache_bytes;
  int num_shards;
  bool sync;
  bool zipf;             // Zipf(0.99) keys; uniform otherwise.
  int absent_get_one_in; // 0: every Get is for a present key.
  bool reopen_check;     // Reopen before the final check.
  Mix mix;
};

// Why each workload exists is in README.md. Every operation type occurs in
// every workload, so every end-to-end metric is defined on each of them.
const Workload kWorkloads[] = {
    {"hot_read", 200000, 100, 64u << 20, 1, false, true, 0, false,
     {935, 50, 5, 5, 5}},
    {"durable_ingest", 200000, 200, 8u << 20, 4, true, false, 0, true,
     {100, 780, 100, 10, 10}},
    {"cold_mixed", 400000, 400, 8u << 20, 1, false, false, 5, false,
     {500, 230, 20, 100, 150}},
};

// ---------------------------------------------------------------------------
// Values. Layout: key (20) | writer (1) | seq (8) | filler | checksum (8),
// the checksum covering every byte before it.

constexpr size_t kValueHeader = kKeyBytes + 1 + 8;
constexpr uint64_t kChecksumSeed = 0x6c736d62656e6368ull;

void EncodeValue(const std::string& key, int writer, uint64_t seq,
                 size_t size, std::string* out) {
  out->resize(size);
  char* p = out->data();
  std::memcpy(p, key.data(), kKeyBytes);
  p[kKeyBytes] = static_cast<char>(writer);
  lsmlab::EncodeFixed64(p + kKeyBytes + 1, seq);
  uint64_t x = seq * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(writer);
  for (size_t i = kValueHeader; i < size - 8; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    p[i] = static_cast<char>(x >> 56);
  }
  lsmlab::EncodeFixed64(p + size - 8,
                        lsmlab::Hash64(p, size - 8, kChecksumSeed));
}

struct Decoded {
  int writer = -1;
  uint64_t seq = 0;
};

/// True when `value` is intact and was written for `key`.
bool DecodeValue(const Slice& key, const Slice& value, size_t size,
                 Decoded* d) {
  if (value.size() != size || key.size() != kKeyBytes) {
    return false;
  }
  const char* p = value.data();
  if (lsmlab::DecodeFixed64(p + size - 8) !=
          lsmlab::Hash64(p, size - 8, kChecksumSeed) ||
      std::memcmp(p, key.data(), kKeyBytes) != 0) {
    return false;
  }
  d->writer = static_cast<unsigned char>(p[kKeyBytes]);
  d->seq = lsmlab::DecodeFixed64(p + kKeyBytes + 1);
  return true;
}

uint64_t KeyIndex(const Slice& key) {
  // "user%016llu"
  uint64_t k = 0;
  for (size_t i = 4; i < key.size(); ++i) {
    k = k * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  return k;
}

// ---------------------------------------------------------------------------
// Clients

struct Shared {
  const Workload* w = nullptr;
  DB* db = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<bool> stop{false};
};

/// One closed-loop client. Client `id` is the only writer of keys with
/// index % kClients == id, so it knows the last acknowledged version of
/// each of them.
class Client {
 public:
  Client(int id, uint64_t seed, const Workload& w)
      : id_(id),
        rng_(lsmlab::Hash64(reinterpret_cast<const char*>(&seed), sizeof(seed),
                            0x1000u + static_cast<uint64_t>(id))),
        last_acked_(w.num_keys / kClients, 0) {
    if (w.zipf) {
      zipf_ = std::make_unique<lsmlab::ZipfianGenerator>(w.num_keys, 0.99,
                                                         rng_.Next64());
    }
  }

  void Preload(Shared* sh);
  void Warm(Shared* sh);
  void Run(Shared* sh);
  /// Checks every owned key holds its last acknowledged version.
  void VerifyOwned(Shared* sh);

  uint64_t failed() const { return failed_; }
  uint64_t verified() const { return verified_; }
  uint64_t user_bytes() const { return user_bytes_; }
  uint64_t ops(bool traced) const { return ops_[traced ? 1 : 0]; }
  uint64_t traced_scan_keys() const { return traced_scan_keys_; }
  const LatencyHistogram& latency(Op op) const {
    return latency_[static_cast<int>(op)];
  }

 private:
  uint64_t PickKey(const Workload& w) {
    return zipf_ != nullptr ? zipf_->Next() : rng_.Uniform(w.num_keys);
  }
  uint64_t OwnedKey(const Workload& w) {
    uint64_t k = PickKey(w);
    return k - k % kClients + static_cast<uint64_t>(id_);
  }
  Op PickOp(const Mix& m) {
    int d = static_cast<int>(rng_.Uniform(1000));
    if ((d -= m.get) < 0) return Op::kGet;
    if ((d -= m.put) < 0) return Op::kPut;
    if ((d -= m.batch) < 0) return Op::kBatch;
    if ((d -= m.multiget) < 0) return Op::kMultiGet;
    return Op::kScan;
  }
  /// Checks a value read for key index `k`; counts a mismatch as a failure.
  void Check(const Workload& w, uint64_t k, const Slice& key,
             const Slice& value) {
    Decoded d;
    bool ok = DecodeValue(key, value, w.value_size, &d) &&
              d.writer == static_cast<int>(k % kClients) &&
              (d.writer != id_ || d.seq == last_acked_[k / kClients]);
    if (!ok) {
      failed_++;
    }
  }
  void Acked(uint64_t k, uint64_t seq, const Workload& w) {
    last_acked_[k / kClients] = seq;
    user_bytes_ += kKeyBytes + w.value_size;
  }

  const int id_;
  lsmlab::Random rng_;
  std::unique_ptr<lsmlab::ZipfianGenerator> zipf_;
  std::vector<uint64_t> last_acked_;  // Indexed by key / kClients.
  uint64_t seq_ = 0;
  uint64_t failed_ = 0;
  uint64_t verified_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t ops_[2] = {0, 0};
  uint64_t traced_scan_keys_ = 0;
  LatencyHistogram latency_[kNumOps];
};

void Client::Preload(Shared* sh) {
  const Workload& w = *sh->w;
  lsmlab::WriteOptions wo;
  lsmlab::WriteBatch batch;
  std::string value;
  for (uint64_t k = static_cast<uint64_t>(id_); k < w.num_keys;
       k += kClients) {
    std::string key = lsmlab::WorkloadGenerator::FormatKey(k);
    EncodeValue(key, id_, ++seq_, w.value_size, &value);
    batch.Put(key, value);
    last_acked_[k / kClients] = seq_;
    if (batch.Count() == 100 || k + kClients >= w.num_keys) {
      if (!sh->db->Write(wo, &batch).ok()) {
        failed_++;
      }
      batch.Clear();
    }
  }
}

void Client::Warm(Shared* sh) {
  const Workload& w = *sh->w;
  lsmlab::ReadOptions ro;
  std::string value;
  uint64_t per = w.num_keys / kClients;
  for (uint64_t k = per * static_cast<uint64_t>(id_);
       k < per * static_cast<uint64_t>(id_ + 1); ++k) {
    std::string key = lsmlab::WorkloadGenerator::FormatKey(k);
    if (!sh->db->Get(ro, key, &value).ok()) {
      failed_++;
      continue;
    }
    Check(w, k, key, value);
  }
}

void Client::VerifyOwned(Shared* sh) {
  const Workload& w = *sh->w;
  lsmlab::ReadOptions ro;
  std::string value;
  for (uint64_t k = static_cast<uint64_t>(id_); k < w.num_keys;
       k += kClients) {
    std::string key = lsmlab::WorkloadGenerator::FormatKey(k);
    verified_++;
    if (!sh->db->Get(ro, key, &value).ok()) {
      failed_++;
      continue;
    }
    Check(w, k, key, value);
  }
}

void Client::Run(Shared* sh) {
  const Workload& w = *sh->w;
  Tracer* tracer = sh->tracer;
  tracer->RegisterClient();
  ThreadTrace* trace = tracer->Current();
  DB* db = sh->db;
  lsmlab::ReadOptions ro;
  lsmlab::WriteOptions wo;
  wo.sync = w.sync;

  std::string key, value;
  std::vector<std::string> keys;
  std::vector<uint64_t> key_ids;
  std::vector<uint64_t> seqs;
  std::vector<Slice> key_slices;
  std::vector<std::string> values;
  lsmlab::WriteBatch batch;

  while (!sh->stop.load(std::memory_order_relaxed)) {
    const bool traced = tracer->enabled();
    const uint64_t gen_start = traced ? NowNanos() : 0;
    const Op op = PickOp(w.mix);
    bool absent = false;
    uint64_t k = 0;
    keys.clear();
    key_ids.clear();
    seqs.clear();
    switch (op) {
      case Op::kGet:
        k = PickKey(w);
        absent = w.absent_get_one_in > 0 &&
                 rng_.OneIn(static_cast<uint64_t>(w.absent_get_one_in));
        key = lsmlab::WorkloadGenerator::FormatKey(k);
        if (absent) {
          key += "!absent";  // In range, never written: only filters help.
        }
        break;
      case Op::kPut:
        k = OwnedKey(w);
        key = lsmlab::WorkloadGenerator::FormatKey(k);
        EncodeValue(key, id_, ++seq_, w.value_size, &value);
        break;
      case Op::kBatch:
        batch.Clear();
        for (size_t i = 0; i < kBatchKeys; ++i) {
          key_ids.push_back(OwnedKey(w));
          keys.push_back(lsmlab::WorkloadGenerator::FormatKey(key_ids.back()));
          seqs.push_back(++seq_);
          EncodeValue(keys.back(), id_, seqs.back(), w.value_size, &value);
          batch.Put(keys.back(), value);
        }
        break;
      case Op::kMultiGet:
        key_slices.clear();
        for (size_t i = 0; i < kMultiGetKeys; ++i) {
          key_ids.push_back(PickKey(w));
          keys.push_back(lsmlab::WorkloadGenerator::FormatKey(key_ids.back()));
        }
        for (const std::string& s : keys) {
          key_slices.emplace_back(s);
        }
        break;
      case Op::kScan:
        k = PickKey(w);
        key = lsmlab::WorkloadGenerator::FormatKey(k);
        break;
      case Op::kCount:
        break;
    }
    if (traced) {
      trace->gen_ns += NowNanos() - gen_start;
    }

    Status s;
    std::vector<Status> statuses;
    std::unique_ptr<lsmlab::Iterator> it;
    std::string got;
    int scanned = 0;
    bool scan_ok = true;
    const uint64_t start = NowNanos();
    {
      RootSpan span(tracer, op);
      switch (op) {
        case Op::kGet:
          s = db->Get(ro, key, &got);
          break;
        case Op::kPut:
          s = db->Put(wo, key, value);
          break;
        case Op::kBatch:
          s = db->Write(wo, &batch);
          break;
        case Op::kMultiGet:
          statuses = db->MultiGet(ro, key_slices, &values);
          break;
        case Op::kScan:
          // Every key in [0, num_keys) exists, so the scan must return the
          // consecutive keys k, k+1, ... in strictly increasing order.
          it = db->NewIterator(ro);
          for (it->Seek(key); it->Valid() && scanned < kScanKeys;
               it->Next(), ++scanned) {
            uint64_t j = k + static_cast<uint64_t>(scanned);
            if (it->key().size() != kKeyBytes || KeyIndex(it->key()) != j) {
              scan_ok = false;
              break;
            }
            Check(w, j, it->key(), it->value());
          }
          s = it->status();
          it.reset();
          break;
        case Op::kCount:
          break;
      }
    }
    latency_[static_cast<int>(op)].Add(NowNanos() - start);
    ops_[traced ? 1 : 0]++;

    switch (op) {
      case Op::kGet:
        if (absent) {
          if (!s.IsNotFound()) failed_++;
        } else if (!s.ok()) {
          failed_++;
        } else {
          Check(w, k, key, got);
        }
        break;
      case Op::kPut:
        if (s.ok()) {
          Acked(k, seq_, w);
        } else {
          failed_++;
        }
        break;
      case Op::kBatch:
        if (s.ok()) {
          for (size_t i = 0; i < kBatchKeys; ++i) {
            Acked(key_ids[i], seqs[i], w);
          }
        } else {
          failed_++;
        }
        break;
      case Op::kMultiGet: {
        bool ok = statuses.size() == kMultiGetKeys &&
                  values.size() == kMultiGetKeys;
        for (size_t i = 0; ok && i < kMultiGetKeys; ++i) {
          if (!statuses[i].ok()) {
            ok = false;
          } else {
            Check(w, key_ids[i], keys[i], values[i]);
          }
        }
        if (!ok) failed_++;
        break;
      }
      case Op::kScan: {
        uint64_t expect = std::min<uint64_t>(kScanKeys, w.num_keys - k);
        if (!s.ok() || !scan_ok || static_cast<uint64_t>(scanned) != expect) {
          failed_++;
        }
        if (traced) traced_scan_keys_ += static_cast<uint64_t>(scanned);
        break;
      }
      case Op::kCount:
        break;
    }
  }
}

void OnClients(std::vector<std::unique_ptr<Client>>& clients,
               const std::function<void(Client*)>& fn) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&fn, client = c.get()] { fn(client); });
  }
  for (auto& t : threads) {
    t.join();
  }
}

// ---------------------------------------------------------------------------
// Process and host facts

/// Resident bytes of this process.
double RssBytes() {
  std::ifstream in("/proc/self/statm");
  double pages = 0, resident = 0;
  in >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// CPU seconds of every thread of this process except the calling one.
/// Called while no client thread exists, that is the engine's own threads.
double EngineThreadCpuSeconds() {
  const std::string self = std::to_string(syscall(SYS_gettid));
  double total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::string tid = entry.path().filename().string();
    if (tid == self) {
      continue;
    }
    // First field of schedstat: nanoseconds spent on a CPU.
    std::ifstream in(entry.path() / "schedstat");
    double ns = 0;
    if (in >> ns) {
      total += ns / 1e9;
    }
  }
  return total;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsTypeOf(const char* path) {
  struct statfs sf;
  if (statfs(path, &sf) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// One DB instance over its in-memory substrate.

struct Stack {
  std::unique_ptr<lsmlab::MemEnv> mem;
  std::unique_ptr<BenchEnv> env;
  std::unique_ptr<DB> db;

  void Close() {
    db.reset();
    env.reset();
    mem.reset();
  }
};

/// The design point shared by every workload; only sizes, the block cache
/// and the shard count vary.
lsmlab::Options MakeOptions(const Workload& w, BenchEnv* env,
                            Tracer* tracer) {
  lsmlab::Options o;
  o.env = env;
  o.data_layout = lsmlab::DataLayout::kLeveling;
  o.size_ratio = 10;
  o.memtable_rep = lsmlab::MemTableRepType::kSkipList;
  o.index_type = lsmlab::IndexType::kBinarySearchFence;
  o.filter_bits_per_key = 10;
  o.filter_policy = std::make_shared<TracedFilterPolicy>(
      lsmlab::NewBloomFilterPolicy(10), tracer);
  o.background_threads = 2;
  o.block_cache_capacity = w.block_cache_bytes;
  o.num_shards = w.num_shards;
  for (int i = 1; i < w.num_shards; ++i) {
    // Quartiles of the key space: the default first-byte split would put
    // every "user..." key in one shard.
    o.shard_split_keys.push_back(lsmlab::WorkloadGenerator::FormatKey(
        w.num_keys * static_cast<uint64_t>(i) /
        static_cast<uint64_t>(w.num_shards)));
  }
  return o;
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "lsmbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Opens a fresh DB, preloads every key, waits for background work and
/// reads every key once so the block cache and the table readers are warm.
double Setup(const Workload& w, uint64_t seed, Tracer* tracer, Stack* stack,
             std::vector<std::unique_ptr<Client>>* clients) {
  auto t0 = std::chrono::steady_clock::now();
  stack->mem = std::make_unique<lsmlab::MemEnv>();
  stack->env = std::make_unique<BenchEnv>(stack->mem.get(), tracer);
  Status s = DB::Open(MakeOptions(w, stack->env.get(), tracer), kDbName,
                      &stack->db);
  if (!s.ok()) {
    Die("open", s);
  }
  clients->clear();
  for (int i = 0; i < kClients; ++i) {
    clients->push_back(std::make_unique<Client>(i, seed, w));
  }
  Shared sh;
  sh.w = &w;
  sh.db = stack->db.get();
  sh.tracer = tracer;
  OnClients(*clients, [&sh](Client* c) { c->Preload(&sh); });
  s = stack->db->WaitForBackgroundWork();
  if (!s.ok()) {
    Die("wait for background work", s);
  }
  OnClients(*clients, [&sh](Client* c) { c->Warm(&sh); });
  return SecondsSince(t0);
}

struct Measured {
  double elapsed_s = 0;
  double mode_s[2] = {0, 0};  // Untraced, traced.
  double engine_cpu_s = 0;
  EngineCounters counters;    // Over the run and the wait after it.
  uint64_t bytes_written[kNumFileKinds] = {};
  double mean_file_bytes = 0;  // Bytes of all DB files, sampled in the run.
  double peak_rss_bytes = 0;   // Resident bytes less DB file contents.
};

Measured Measure(const Workload& w, Tracer* tracer, int seconds, bool trace,
                 Stack* stack, std::vector<std::unique_ptr<Client>>* clients) {
  Measured m;
  DB* db = stack->db.get();
  Shared sh;
  sh.w = &w;
  sh.db = db;
  sh.tracer = tracer;
  EngineCounters c0 = ReadEngineCounters(db);
  uint64_t b0[kNumFileKinds];
  for (int k = 0; k < kNumFileKinds; ++k) {
    b0[k] = stack->env->bytes_written(static_cast<FileKind>(k));
  }
  double cpu0 = EngineThreadCpuSeconds();

  std::latch go(1);
  std::vector<std::thread> threads;
  for (auto& c : *clients) {
    threads.emplace_back([&sh, &go, client = c.get()] {
      go.wait();
      client->Run(&sh);
    });
  }
  // The main thread samples the DB's file bytes every tick (space_amp is
  // their mean: the bytes held at one instant swing with each compaction)
  // and the process's resident memory less the file contents MemEnv keeps
  // in the heap, where a file system would keep them in the page cache. In
  // a traced run it also switches tracing on for every other slice.
  const auto tick = std::chrono::milliseconds(100);
  const auto t0 = std::chrono::steady_clock::now();
  const auto end = t0 + std::chrono::seconds(seconds);
  go.count_down();
  auto slice_start = t0;
  int slice = 0;
  double file_bytes_sum = 0;
  int samples = 0;
  for (auto next = t0 + tick;; next += tick) {
    std::this_thread::sleep_until(std::min(next, end));
    const auto now = std::chrono::steady_clock::now();
    file_bytes_sum += static_cast<double>(stack->env->named_file_bytes());
    samples++;
    m.peak_rss_bytes =
        std::max(m.peak_rss_bytes,
                 RssBytes() - static_cast<double>(stack->env->content_bytes()));
    if (trace && now >= t0 + std::chrono::duration<double>(
                                 static_cast<double>(seconds) * (slice + 1) /
                                 kTraceSlices)) {
      m.mode_s[slice % 2] +=
          std::chrono::duration<double>(now - slice_start).count();
      slice_start = now;
      slice++;
      tracer->set_enabled(slice % 2 == 1);
    }
    if (now >= end) {
      break;
    }
  }
  m.mean_file_bytes = file_bytes_sum / samples;
  sh.stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  m.elapsed_s = SecondsSince(t0);
  tracer->set_enabled(false);
  if (!trace) {
    m.mode_s[0] = m.elapsed_s;
  }
  m.engine_cpu_s = EngineThreadCpuSeconds() - cpu0;

  // Untimed: let the run's flushes and compactions finish, so write_amp
  // counts all the work its writes caused.
  Status s = db->WaitForBackgroundWork();
  if (!s.ok()) {
    Die("wait for background work", s);
  }
  m.counters = ReadEngineCounters(db).Since(c0);
  for (int k = 0; k < kNumFileKinds; ++k) {
    m.bytes_written[k] =
        stack->env->bytes_written(static_cast<FileKind>(k)) - b0[k];
  }
  return m;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The gated end-to-end metrics. The p99 latencies go to `tails`: they are
/// printed with the record but carry no bound, because their run-to-run
/// spread on a shared host exceeds any bound a regression gate could use.
std::vector<Metric> EndToEndMetrics(
    const Workload& w, const Measured& m, double setup_s,
    const std::vector<std::unique_ptr<Client>>& clients,
    std::vector<Metric>* tails) {
  std::vector<Metric> out;
  uint64_t ops = 0, user_bytes = 0, written = 0;
  LatencyHistogram lat[kNumOps];
  for (const auto& c : clients) {
    ops += c->ops(false);
    user_bytes += c->user_bytes();
    for (int op = 0; op < kNumOps; ++op) {
      lat[op].Merge(c->latency(static_cast<Op>(op)));
    }
  }
  for (uint64_t b : m.bytes_written) {
    written += b;
  }
  out.push_back({"ops_per_s", Ratio(static_cast<double>(ops), m.elapsed_s),
                 "1/s"});
  for (int op = 0; op < kNumOps; ++op) {
    std::string name = OpName(static_cast<Op>(op));
    out.push_back({name + "_p50_us", lat[op].Quantile(0.50) / 1e3, "us"});
    tails->push_back({name + "_p99_us", lat[op].Quantile(0.99) / 1e3, "us"});
  }
  out.push_back({"write_amp",
                 Ratio(static_cast<double>(written),
                       static_cast<double>(user_bytes)),
                 "ratio"});
  double live = static_cast<double>(w.num_keys * (kKeyBytes + w.value_size));
  out.push_back({"space_amp", m.mean_file_bytes / live,
                 "ratio"});
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"peak_rss_mb", m.peak_rss_bytes / (1 << 20), "MB"});
  return out;
}

std::vector<Metric> PerLayerMetrics(
    const Measured& m, const Tracer& tracer,
    const std::vector<std::unique_ptr<Client>>& clients) {
  // Span aggregates over the traced slices, split into client root spans
  // and calls engine threads made outside any root span.
  Cell ops[kNumOps];
  Cell calls[kNumOps + 1][kNumCalls][kNumFileKinds];
  uint64_t gen_ns = 0;
  for (const ThreadTrace* t : tracer.threads()) {
    for (int op = 0; op <= kNumOps; ++op) {
      if (t->client != (op < kNumOps)) {
        continue;  // Stray calls a client made between two root spans.
      }
      for (int c = 0; c < kNumCalls; ++c) {
        for (int f = 0; f < kNumFileKinds; ++f) {
          calls[op][c][f].calls += t->calls[op][c][f].calls;
          calls[op][c][f].ns += t->calls[op][c][f].ns;
          calls[op][c][f].units += t->calls[op][c][f].units;
        }
      }
    }
    for (int op = 0; op < kNumOps; ++op) {
      ops[op].calls += t->ops[op].calls;
      ops[op].ns += t->ops[op].ns;
      ops[op].units += t->ops[op].units;
    }
    gen_ns += t->gen_ns;
  }
  // Sum of `field` over calls of `call` made inside roots of `op` (or
  // outside any root for kOutsideOp), across the given file kinds.
  auto sum = [&](int op, Call call, uint64_t Cell::*field,
                 std::initializer_list<FileKind> kinds = {}) {
    uint64_t total = 0;
    for (int f = 0; f < kNumFileKinds; ++f) {
      bool wanted = kinds.size() == 0;
      for (FileKind k : kinds) {
        wanted = wanted || static_cast<int>(k) == f;
      }
      if (wanted) {
        total += calls[op][static_cast<int>(call)][f].*field;
      }
    }
    return static_cast<double>(total);
  };
  auto count = [&](Op op) {
    return static_cast<double>(ops[static_cast<int>(op)].calls);
  };
  auto self_us = [&](Op op) {
    const Cell& c = ops[static_cast<int>(op)];
    return Ratio(static_cast<double>(c.ns - c.units) / 1e3,
                 static_cast<double>(c.calls));
  };
  const int get = static_cast<int>(Op::kGet);
  const int put = static_cast<int>(Op::kPut);
  const int batch = static_cast<int>(Op::kBatch);
  const int scan = static_cast<int>(Op::kScan);
  const double gets = count(Op::kGet);
  const double batches = count(Op::kBatch);
  const double writes = count(Op::kPut) + batches;

  uint64_t ops_mode[2] = {0, 0}, user_bytes = 0, scan_keys = 0;
  for (const auto& c : clients) {
    ops_mode[0] += c->ops(false);
    ops_mode[1] += c->ops(true);
    user_bytes += c->user_bytes();
    scan_keys += c->traced_scan_keys();
  }
  const double user = static_cast<double>(user_bytes);
  const double all_ops = static_cast<double>(ops_mode[0] + ops_mode[1]);
  const double traced_s = m.mode_s[1];
  const EngineCounters& e = m.counters;
  auto written = [&](FileKind k) {
    return static_cast<double>(m.bytes_written[static_cast<int>(k)]);
  };

  double probes = 0, negatives = 0, mr_calls = 0, mr_reqs = 0, mr_ns = 0;
  for (int op = 0; op < kNumOps; ++op) {
    probes += sum(op, Call::kFilterProbe, &Cell::calls);
    negatives += sum(op, Call::kFilterProbe, &Cell::units);
    mr_calls += sum(op, Call::kMultiRead, &Cell::calls);
    mr_reqs += sum(op, Call::kMultiRead, &Cell::units);
    mr_ns += sum(op, Call::kMultiRead, &Cell::ns);
  }
  double engine_io_ns = 0;
  for (Call c : {Call::kRead, Call::kMultiRead, Call::kAppend, Call::kSync}) {
    engine_io_ns += sum(kOutsideOp, c, &Cell::ns);
  }
  double ops_per_s[2] = {Ratio(static_cast<double>(ops_mode[0]), m.mode_s[0]),
                         Ratio(static_cast<double>(ops_mode[1]), m.mode_s[1])};

  const double kw = static_cast<double>(e.writes) / 1e3;
  return {
      {"db.get_self_us", self_us(Op::kGet), "us"},
      {"db.put_self_us", self_us(Op::kPut), "us"},
      {"db.batch_self_us", self_us(Op::kBatch), "us"},
      {"db.writes_per_group",
       Ratio(static_cast<double>(e.writes), static_cast<double>(e.write_groups)),
       "count"},
      {"db.syncs_per_batch",
       Ratio(sum(batch, Call::kSync, &Cell::calls, {FileKind::kWal}), batches),
       "count"},
      {"db.stall_us_per_kwrite", Ratio(static_cast<double>(e.stall_micros), kw),
       "us"},
      {"filter.probes_per_get",
       Ratio(sum(get, Call::kFilterProbe, &Cell::calls), gets), "count"},
      {"filter.negative_frac", Ratio(negatives, probes), "ratio"},
      {"filter.false_pos_rate",
       Ratio(static_cast<double>(e.filter_false_positives),
             static_cast<double>(e.filter_checks)),
       "ratio"},
      {"filter.probe_us_per_get",
       Ratio(sum(get, Call::kFilterProbe, &Cell::ns) / 1e3, gets), "us"},
      {"filter.build_us_per_mb",
       Ratio(sum(kOutsideOp, Call::kFilterBuild, &Cell::ns) / 1e3,
             sum(kOutsideOp, Call::kAppend, &Cell::units, {FileKind::kTable}) /
                 1e6),
       "us/MB"},
      {"cache.hit_ratio",
       Ratio(static_cast<double>(e.cache_hits),
             static_cast<double>(e.cache_hits + e.cache_misses)),
       "ratio"},
      {"cache.evictions_per_op",
       Ratio(static_cast<double>(e.cache_evictions), all_ops), "count"},
      {"table.runs_probed_per_get",
       Ratio(static_cast<double>(e.runs_probed),
             static_cast<double>(e.point_lookups)),
       "count"},
      {"table.readahead_hit_ratio",
       Ratio(static_cast<double>(e.readahead_hits),
             static_cast<double>(e.readahead_hits + e.readahead_misses)),
       "ratio"},
      {"table.opens", static_cast<double>(e.table_opens), "count"},
      {"io.read_ops_per_get",
       Ratio(sum(get, Call::kRead, &Cell::calls) +
                 sum(get, Call::kMultiRead, &Cell::units),
             gets),
       "count"},
      {"io.read_us_per_get",
       Ratio((sum(get, Call::kRead, &Cell::ns) +
              sum(get, Call::kMultiRead, &Cell::ns)) /
                 1e3,
             gets),
       "us"},
      {"io.read_bytes_per_scan_key",
       Ratio(sum(scan, Call::kRead, &Cell::units),
             static_cast<double>(scan_keys)),
       "B"},
      {"io.multiread_depth", Ratio(mr_reqs, mr_calls), "count"},
      {"io.multiread_us_per_call", Ratio(mr_ns / 1e3, mr_calls), "us"},
      {"io.wal_append_us_per_write",
       Ratio((sum(put, Call::kAppend, &Cell::ns, {FileKind::kWal}) +
              sum(batch, Call::kAppend, &Cell::ns, {FileKind::kWal})) /
                 1e3,
             writes),
       "us"},
      {"io.wal_sync_us_per_write",
       Ratio((sum(put, Call::kSync, &Cell::ns, {FileKind::kWal}) +
              sum(batch, Call::kSync, &Cell::ns, {FileKind::kWal})) /
                 1e3,
             writes),
       "us"},
      {"io.commitlog_syncs_per_batch",
       Ratio(sum(batch, Call::kSync, &Cell::calls, {FileKind::kCommitLog}),
             batches),
       "count"},
      {"io.write_bytes_per_user_byte.wal", Ratio(written(FileKind::kWal), user),
       "ratio"},
      {"io.write_bytes_per_user_byte.table",
       Ratio(written(FileKind::kTable), user), "ratio"},
      {"io.write_bytes_per_user_byte.manifest",
       Ratio(written(FileKind::kManifest), user), "ratio"},
      {"compaction.bytes_per_user_byte",
       Ratio(static_cast<double>(e.compaction_bytes_written), user), "ratio"},
      {"compaction.jobs", static_cast<double>(e.compactions), "count"},
      {"flush.jobs", static_cast<double>(e.flushes), "count"},
      {"bg.cpu_s", m.engine_cpu_s, "s"},
      {"compaction.io_us", Ratio(engine_io_ns / 1e3, traced_s), "us/s"},
      {"version.manifest_bytes_per_flush",
       Ratio(written(FileKind::kManifest), static_cast<double>(e.flushes)),
       "B"},
      {"bench.gen_us_per_op",
       Ratio(static_cast<double>(gen_ns) / 1e3,
             static_cast<double>(ops_mode[1])),
       "us"},
      {"bench.trace_overhead_frac", 1.0 - Ratio(ops_per_s[1], ops_per_s[0]),
       "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

std::string DefaultEnvBackend() {
  const char* forced = std::getenv("LSMLAB_IO_BACKEND");
  if (forced != nullptr) {
    return forced;
  }
  return lsmlab::IoUringAvailable() ? "uring" : "threadpool";
}

int Main(int argc, char** argv) {
  // Large blocks (file contents, arenas) always get their own mapping, so
  // freeing them returns the memory and resident size tracks live data.
  mallopt(M_MMAP_THRESHOLD, 256 << 10);
  std::string workload_name, commit = "unknown", out_dir = ".bench_out";
  uint64_t seed = 0;
  int seconds = 0, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "lsmbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr || seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: lsmbench --workload <hot_read|durable_ingest|"
                 "cold_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>] [--out-dir <dir>]\n");
    return 2;
  }

  Tracer tracer(kMaxSpansPerThread);
  Stack stack;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> setup_times;
  uint64_t failed = 0;
  const int setups = trace == 1 ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    stack.Close();
    for (const auto& c : clients) {
      failed += c->failed();
    }
    setup_times.push_back(Setup(*w, seed, &tracer, &stack, &clients));
  }

  Measured m = Measure(*w, &tracer, seconds, trace == 1, &stack, &clients);

  // Untimed end-of-run check: every key holds its last acknowledged
  // version, after a reopen where the workload asks for one.
  lsmlab::Options options = MakeOptions(*w, stack.env.get(), &tracer);
  if (w->reopen_check) {
    stack.db.reset();
    Status s = DB::Open(options, kDbName, &stack.db);
    if (!s.ok()) {
      Die("reopen", s);
    }
  }
  Shared sh;
  sh.w = w;
  sh.db = stack.db.get();
  sh.tracer = &tracer;
  OnClients(clients, [&sh](Client* c) { c->VerifyOwned(&sh); });
  stack.Close();  // Joins the engine's threads before the tracer is read.

  uint64_t attempted = 0;
  for (const auto& c : clients) {
    failed += c->failed();
    attempted += c->ops(false) + c->ops(true) + c->verified();
  }

  std::vector<Metric> tails;
  std::vector<Metric> metrics =
      trace == 1 ? PerLayerMetrics(m, tracer, clients)
                 : EndToEndMetrics(*w, m, Median(setup_times), clients, &tails);
  if (trace == 1) {
    std::filesystem::create_directories(out_dir);
    std::string path = out_dir + "/spans-" + w->name + "-seed" +
                       std::to_string(seed) + ".jsonl";
    if (!tracer.WriteSpans(path)) {
      std::fprintf(stderr, "lsmbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  // The record of what was measured, then the result as the last line.
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"commit\": \"%s\", \"design_point\": \"%s\", "
      "\"memtable\": \"skiplist\", \"index\": \"fence\", "
      "\"filter\": \"bloom-10\", \"background_threads\": %d, "
      "\"shards\": %d, \"block_cache_bytes\": %zu, \"keys\": %llu, "
      "\"value_bytes\": %zu, \"clients\": %d, \"sync\": %s, "
      "\"build_type\": \"%s\", \"lock_rank\": \"%s\", "
      "\"db_env\": \"MemEnv\", \"default_env_multiread_backend\": \"%s\", "
      "\"checkout_fs\": \"%s\", \"nproc\": %ld, \"cpu_model\": \"%s\", "
      "\"setup_s\": [",
      w->name, static_cast<unsigned long long>(seed), seconds, trace,
      JsonEscape(commit).c_str(),
      JsonEscape(options.DesignPointLabel()).c_str(),
      options.background_threads, w->num_shards, w->block_cache_bytes,
      static_cast<unsigned long long>(w->num_keys), w->value_size, kClients,
      w->sync ? "true" : "false", PERFBENCH_BUILD_TYPE,
#ifdef LSMLAB_LOCK_RANK_CHECKS
      "on",
#else
      "off",
#endif
      DefaultEnvBackend().c_str(), FsTypeOf(".").c_str(), nproc,
      JsonEscape(CpuModel()).c_str());
  for (size_t i = 0; i < setup_times.size(); ++i) {
    std::printf("%s%.6g", i == 0 ? "" : ", ", setup_times[i]);
  }
  std::printf("], \"failed_frac\": %.6g, \"tail_latency\": %s}}\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              MetricsJson(tails).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
