#ifndef LSMLAB_IO_COUNTING_ENV_H_
#define LSMLAB_IO_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "io/env.h"

namespace lsmlab {

/// Aggregated I/O counters. The measurement substrate for every experiment:
/// the tutorial's tradeoffs are stated in I/O terms (write amplification,
/// lookup I/Os), which these counters reproduce deterministically.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t syncs = 0;
  uint64_t files_created = 0;
  uint64_t files_removed = 0;
  /// MultiRead submissions (each still counts its requests in read_ops, so
  /// serial/batched runs agree on every counter except this one).
  uint64_t multiread_batches = 0;

  /// Write amplification relative to `user_bytes` of ingested data.
  double WriteAmplification(uint64_t user_bytes) const {
    return user_bytes == 0
               ? 0.0
               : static_cast<double>(bytes_written) /
                     static_cast<double>(user_bytes);
  }
};

/// Env decorator that tallies every I/O passing through it. Thread-safe.
class CountingEnv final : public EnvWrapper {
 public:
  /// Does not take ownership of `base`.
  explicit CountingEnv(Env* base) : EnvWrapper(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;
  Status RemoveFile(const std::string& fname) override;

  IoStats GetStats() const;
  void ResetStats();

  // Internal: counter taps used by the wrapper file classes.
  void RecordRead(uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }

 protected:
  /// Tallies each successful request in read_ops/bytes_read exactly as a
  /// serial loop would, plus one multiread_batches per submission.
  void AfterBatchRead(const RandomAccessFileWrapper* const* files,
                      ReadRequest* reqs, size_t n) override;

 private:
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> files_removed_{0};
  std::atomic<uint64_t> multiread_batches_{0};
};

}  // namespace lsmlab

#endif  // LSMLAB_IO_COUNTING_ENV_H_
