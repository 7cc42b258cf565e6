#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing from outside the engine. The benchmark hands the DB two
// decorators through public plug points -- an Env (Options::env) and a
// FilterPolicy (Options::filter_policy) -- and wraps every client DB call in
// a root span. Env and filter calls made on a client thread while its root
// span is open become that span's children; calls on engine threads are
// roots of their own. Per-thread aggregates are updated at every span end,
// and the first spans of each thread are kept in memory and written out
// when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filter/filter_policy.h"
#include "io/env.h"

namespace perfbench {

/// Client operations: the root spans.
enum class Op : uint8_t { kGet, kPut, kBatch, kMultiGet, kScan, kCount };
/// Leaf calls the decorators observe.
enum class Call : uint8_t {
  kRead,         // units: bytes returned
  kMultiRead,    // units: requests in the batch
  kAppend,       // units: bytes appended
  kSync,         // units: none
  kFilterProbe,  // units: probes that answered "absent"
  kFilterBuild,  // units: keys summarized
  kCount
};
/// Which engine file a call touched, from its name.
enum class FileKind : uint8_t {
  kWal,
  kTable,
  kManifest,
  kCommitLog,
  kOther,
  kCount
};

constexpr int kNumOps = static_cast<int>(Op::kCount);
constexpr int kNumCalls = static_cast<int>(Call::kCount);
constexpr int kNumFileKinds = static_cast<int>(FileKind::kCount);
/// Index used in place of an Op for calls made outside any root span.
constexpr int kOutsideOp = kNumOps;

const char* OpName(Op op);
const char* CallName(Call call);
const char* FileKindName(FileKind kind);
FileKind KindOfFile(const std::string& fname);

uint64_t NowNanos();

struct Cell {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t units = 0;
};

/// One recorded span. Root spans have parent 0.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t units = 0;
  bool is_call = false;
  uint8_t what = 0;  // Op when !is_call, Call otherwise.
  FileKind file = FileKind::kOther;
};

/// Everything one thread recorded. Written only by its own thread; read by
/// the main thread after the DB is closed, when every engine thread has
/// been joined.
struct ThreadTrace {
  int index = 0;
  bool client = false;
  uint64_t next_id = 1;
  // Open root span, if any.
  bool in_root = false;
  Op root_op = Op::kGet;
  uint64_t root_id = 0;
  uint64_t root_child_ns = 0;
  // ops[op]: root spans ({count, ns, child ns} in {calls, ns, units}).
  Cell ops[kNumOps];
  // calls[op or kOutsideOp][call][file kind].
  Cell calls[kNumOps + 1][kNumCalls][kNumFileKinds];
  uint64_t gen_ns = 0;  // Time the client spent generating operations.
  std::vector<Span> spans;
};

/// Owns every ThreadTrace. Tracing is switched on and off at run time; the
/// decorators stay installed either way and only count file bytes written
/// while it is off.
class Tracer {
 public:
  explicit Tracer(size_t max_spans_per_thread)
      : max_spans_per_thread_(max_spans_per_thread) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Marks the calling thread as a client (clients call this first).
  void RegisterClient();
  /// The calling thread's trace, created on first use.
  ThreadTrace* Current();

  void BeginRoot(Op op);
  void EndRoot(uint64_t start_ns);
  void RecordCall(Call call, FileKind file, uint64_t start_ns,
                  uint64_t units);

  /// Every thread trace; call only when no thread is recording.
  std::vector<const ThreadTrace*> threads() const;
  /// Writes the kept spans as JSON lines.
  bool WriteSpans(const std::string& path) const;

 private:
  void Keep(ThreadTrace* t, const Span& span);

  const size_t max_spans_per_thread_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> traces_;
};

/// Times one client DB call as a root span when tracing is on.
class RootSpan {
 public:
  RootSpan(Tracer* tracer, Op op)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->BeginRoot(op);
      start_ns_ = NowNanos();
    }
  }
  ~RootSpan() {
    if (tracer_ != nullptr) {
      tracer_->EndRoot(start_ns_);
    }
  }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

 private:
  Tracer* const tracer_;
  uint64_t start_ns_ = 0;
};

class BenchEnv;

/// The bytes of one file's contents. A base env that keeps files in memory
/// frees them only when the name is gone and no open file refers to them,
/// which is when the last owner of this record drops it.
struct FileContent {
  explicit FileContent(BenchEnv* env) : env(env) {}
  ~FileContent();
  FileContent(const FileContent&) = delete;
  FileContent& operator=(const FileContent&) = delete;

  BenchEnv* const env;
  std::atomic<uint64_t> bytes{0};
};

/// Env decorator: counts bytes appended per file kind and the bytes of
/// file contents still referenced at all times and, while tracing is on,
/// records every file call as a span. Files it opens must be closed before
/// it is destroyed.
class BenchEnv final : public lsmlab::Env {
 public:
  /// Does not take ownership of `base` or `tracer`.
  BenchEnv(lsmlab::Env* base, Tracer* tracer) : base_(base), tracer_(tracer) {}
  ~BenchEnv() override;

  lsmlab::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::SequentialFile>* result) override;
  lsmlab::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::RandomAccessFile>* result) override;
  lsmlab::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::WritableFile>* result) override;
  lsmlab::Status NewRandomRWFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::RandomRWFile>* result) override {
    return base_->NewRandomRWFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  lsmlab::Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  lsmlab::Status RemoveFile(const std::string& fname) override;
  lsmlab::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  lsmlab::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  lsmlab::Status GetFileSize(const std::string& fname,
                             uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  lsmlab::Status RenameFile(const std::string& src,
                            const std::string& target) override;
  lsmlab::Status LinkFile(const std::string& src,
                          const std::string& target) override;
  /// Hands a cross-file batch to the base env as one submission, unwrapping
  /// this env's file wrappers the way CountingEnv::MultiRead does.
  void MultiRead(lsmlab::ReadRequest* reqs, size_t n) override;

  uint64_t bytes_written(FileKind kind) const {
    return bytes_written_[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
  }
  void AddBytesWritten(FileKind kind, uint64_t n) {
    bytes_written_[static_cast<int>(kind)].fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Bytes of the files that have a name: what a directory listing shows.
  uint64_t named_file_bytes();
  /// Bytes of every file content a name or an open file still refers to.
  uint64_t content_bytes() const {
    return content_bytes_.load(std::memory_order_relaxed);
  }
  void AddContentBytes(int64_t n) {
    content_bytes_.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
  }
  Tracer* tracer() const { return tracer_; }

 private:
  /// The content record of `fname`, or null for a file this env never wrote.
  std::shared_ptr<FileContent> Content(const std::string& fname);

  lsmlab::Env* const base_;
  Tracer* const tracer_;
  std::atomic<uint64_t> bytes_written_[kNumFileKinds] = {};
  std::atomic<uint64_t> content_bytes_{0};
  std::mutex names_mu_;
  std::map<std::string, std::shared_ptr<FileContent>> names_;
};

/// Filter decorator: times probes and builds while tracing is on.
class TracedFilterPolicy final : public lsmlab::FilterPolicy {
 public:
  TracedFilterPolicy(std::shared_ptr<const lsmlab::FilterPolicy> base,
                     Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  /// The base policy's name, so tables stay readable without the decorator.
  const char* Name() const override { return base_->Name(); }
  void CreateFilter(const lsmlab::Slice* keys, int n,
                    std::string* dst) const override;
  bool KeyMayMatch(const lsmlab::Slice& key,
                   const lsmlab::Slice& filter) const override;

 private:
  const std::shared_ptr<const lsmlab::FilterPolicy> base_;
  Tracer* const tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
