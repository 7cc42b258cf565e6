#include "trace.h"

#include <chrono>
#include <cstdio>

#include "db/filename.h"

namespace perfbench {

namespace {

struct ThreadSlot {
  const Tracer* tracer = nullptr;
  ThreadTrace* trace = nullptr;
};
thread_local ThreadSlot tls_slot;

class TracedSequentialFile final : public lsmlab::SequentialFile {
 public:
  TracedSequentialFile(std::unique_ptr<lsmlab::SequentialFile> base,
                       Tracer* tracer, FileKind kind,
                       std::shared_ptr<FileContent> content)
      : base_(std::move(base)),
        tracer_(tracer),
        kind_(kind),
        content_(std::move(content)) {}

  lsmlab::Status Read(size_t n, lsmlab::Slice* result,
                      char* scratch) override {
    if (!tracer_->enabled()) {
      return base_->Read(n, result, scratch);
    }
    uint64_t start = NowNanos();
    lsmlab::Status s = base_->Read(n, result, scratch);
    tracer_->RecordCall(Call::kRead, kind_, start, s.ok() ? result->size() : 0);
    return s;
  }
  lsmlab::Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<lsmlab::SequentialFile> base_;
  Tracer* const tracer_;
  const FileKind kind_;
  const std::shared_ptr<FileContent> content_;
};

class TracedRandomAccessFile final : public lsmlab::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<lsmlab::RandomAccessFile> base,
                         Tracer* tracer, FileKind kind,
                         std::shared_ptr<FileContent> content)
      : base_(std::move(base)),
        tracer_(tracer),
        kind_(kind),
        content_(std::move(content)) {}

  lsmlab::Status Read(uint64_t offset, size_t n, lsmlab::Slice* result,
                      char* scratch) const override {
    if (!tracer_->enabled()) {
      return base_->Read(offset, n, result, scratch);
    }
    uint64_t start = NowNanos();
    lsmlab::Status s = base_->Read(offset, n, result, scratch);
    tracer_->RecordCall(Call::kRead, kind_, start, s.ok() ? result->size() : 0);
    return s;
  }

  void MultiRead(lsmlab::ReadRequest* reqs, size_t n) const override {
    if (!tracer_->enabled()) {
      base_->MultiRead(reqs, n);
      return;
    }
    uint64_t start = NowNanos();
    base_->MultiRead(reqs, n);
    tracer_->RecordCall(Call::kMultiRead, kind_, start, n);
  }

  lsmlab::RandomAccessFile* target() const { return base_.get(); }
  FileKind kind() const { return kind_; }

 private:
  std::unique_ptr<lsmlab::RandomAccessFile> base_;
  Tracer* const tracer_;
  const FileKind kind_;
  const std::shared_ptr<FileContent> content_;
};

class TracedWritableFile final : public lsmlab::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<lsmlab::WritableFile> base,
                     BenchEnv* env, FileKind kind,
                     std::shared_ptr<FileContent> content)
      : base_(std::move(base)),
        env_(env),
        kind_(kind),
        content_(std::move(content)) {}

  lsmlab::Status Append(const lsmlab::Slice& data) override {
    Tracer* tracer = env_->tracer();
    uint64_t start = tracer->enabled() ? NowNanos() : 0;
    lsmlab::Status s = base_->Append(data);
    if (s.ok()) {
      env_->AddBytesWritten(kind_, data.size());
      content_->bytes.fetch_add(data.size(), std::memory_order_relaxed);
      env_->AddContentBytes(static_cast<int64_t>(data.size()));
    }
    if (start != 0) {
      tracer->RecordCall(Call::kAppend, kind_, start, data.size());
    }
    return s;
  }
  lsmlab::Status Close() override { return base_->Close(); }
  lsmlab::Status Flush() override { return base_->Flush(); }
  lsmlab::Status Sync() override {
    Tracer* tracer = env_->tracer();
    if (!tracer->enabled()) {
      return base_->Sync();
    }
    uint64_t start = NowNanos();
    lsmlab::Status s = base_->Sync();
    tracer->RecordCall(Call::kSync, kind_, start, 0);
    return s;
  }

 private:
  std::unique_ptr<lsmlab::WritableFile> base_;
  BenchEnv* const env_;
  const FileKind kind_;
  const std::shared_ptr<FileContent> content_;
};

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet:
      return "get";
    case Op::kPut:
      return "put";
    case Op::kBatch:
      return "batch";
    case Op::kMultiGet:
      return "multiget";
    case Op::kScan:
      return "scan";
    case Op::kCount:
      break;
  }
  return "?";
}

const char* CallName(Call call) {
  switch (call) {
    case Call::kRead:
      return "env.read";
    case Call::kMultiRead:
      return "env.multiread";
    case Call::kAppend:
      return "env.append";
    case Call::kSync:
      return "env.sync";
    case Call::kFilterProbe:
      return "filter.probe";
    case Call::kFilterBuild:
      return "filter.build";
    case Call::kCount:
      break;
  }
  return "?";
}

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kWal:
      return "wal";
    case FileKind::kTable:
      return "table";
    case FileKind::kManifest:
      return "manifest";
    case FileKind::kCommitLog:
      return "commitlog";
    case FileKind::kOther:
    case FileKind::kCount:
      break;
  }
  return "other";
}

FileKind KindOfFile(const std::string& fname) {
  uint64_t number = 0;
  lsmlab::FileType type;
  if (!lsmlab::ParseFileName(fname.substr(fname.find_last_of('/') + 1),
                             &number, &type)) {
    return FileKind::kOther;
  }
  switch (type) {
    case lsmlab::FileType::kLogFile:
      return FileKind::kWal;
    case lsmlab::FileType::kTableFile:
      return FileKind::kTable;
    case lsmlab::FileType::kManifestFile:
      return FileKind::kManifest;
    case lsmlab::FileType::kCommitLogFile:
      return FileKind::kCommitLog;
    default:
      return FileKind::kOther;
  }
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Tracer

ThreadTrace* Tracer::Current() {
  if (tls_slot.tracer == this) {
    return tls_slot.trace;
  }
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(std::make_unique<ThreadTrace>());
  ThreadTrace* t = traces_.back().get();
  t->index = static_cast<int>(traces_.size()) - 1;
  t->spans.reserve(max_spans_per_thread_);
  tls_slot = ThreadSlot{this, t};
  return t;
}

void Tracer::RegisterClient() { Current()->client = true; }

void Tracer::Keep(ThreadTrace* t, const Span& span) {
  if (t->spans.size() < max_spans_per_thread_) {
    t->spans.push_back(span);
  }
}

void Tracer::BeginRoot(Op op) {
  ThreadTrace* t = Current();
  t->in_root = true;
  t->root_op = op;
  t->root_id = (static_cast<uint64_t>(t->index) << 40) | t->next_id++;
  t->root_child_ns = 0;
}

void Tracer::EndRoot(uint64_t start_ns) {
  uint64_t dur = NowNanos() - start_ns;
  ThreadTrace* t = Current();
  Op op = t->root_op;
  Cell& c = t->ops[static_cast<int>(op)];
  c.calls++;
  c.ns += dur;
  c.units += t->root_child_ns;
  Span span;
  span.id = t->root_id;
  span.start_ns = start_ns;
  span.dur_ns = dur;
  span.what = static_cast<uint8_t>(op);
  Keep(t, span);
  t->in_root = false;
}

void Tracer::RecordCall(Call call, FileKind file, uint64_t start_ns,
                        uint64_t units) {
  uint64_t dur = NowNanos() - start_ns;
  ThreadTrace* t = Current();
  int slot = kOutsideOp;
  Span span;
  span.id = (static_cast<uint64_t>(t->index) << 40) | t->next_id++;
  if (t->in_root) {
    span.parent = t->root_id;
    t->root_child_ns += dur;
    slot = static_cast<int>(t->root_op);
  }
  span.start_ns = start_ns;
  span.dur_ns = dur;
  span.units = units;
  span.is_call = true;
  span.what = static_cast<uint8_t>(call);
  span.file = file;
  Keep(t, span);
  Cell& c = t->calls[slot][static_cast<int>(call)][static_cast<int>(file)];
  c.calls++;
  c.ns += dur;
  c.units += units;
}

std::vector<const ThreadTrace*> Tracer::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : traces_) {
    out.push_back(t.get());
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const ThreadTrace* t : threads()) {
    for (const Span& s : t->spans) {
      std::fprintf(
          f,
          "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"file\":\"%s\","
          "\"thread\":\"%s-%d\",\"start_ns\":%llu,\"dur_ns\":%llu,"
          "\"units\":%llu}\n",
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          s.is_call ? CallName(static_cast<Call>(s.what))
                    : OpName(static_cast<Op>(s.what)),
          s.is_call ? FileKindName(s.file) : "", t->client ? "client" : "engine",
          t->index, static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.dur_ns),
          static_cast<unsigned long long>(s.units));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// BenchEnv

FileContent::~FileContent() {
  env->AddContentBytes(-static_cast<int64_t>(bytes.load()));
}

BenchEnv::~BenchEnv() {
  std::lock_guard<std::mutex> lock(names_mu_);
  names_.clear();
}

uint64_t BenchEnv::named_file_bytes() {
  std::lock_guard<std::mutex> lock(names_mu_);
  uint64_t total = 0;
  for (const auto& [name, content] : names_) {
    total += content->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

std::shared_ptr<FileContent> BenchEnv::Content(const std::string& fname) {
  std::lock_guard<std::mutex> lock(names_mu_);
  auto it = names_.find(fname);
  return it == names_.end() ? nullptr : it->second;
}

lsmlab::Status BenchEnv::RemoveFile(const std::string& fname) {
  lsmlab::Status s = base_->RemoveFile(fname);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(names_mu_);
    names_.erase(fname);
  }
  return s;
}

lsmlab::Status BenchEnv::RenameFile(const std::string& src,
                                    const std::string& target) {
  lsmlab::Status s = base_->RenameFile(src, target);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(names_mu_);
    auto it = names_.find(src);
    if (it != names_.end()) {
      names_[target] = it->second;
      names_.erase(it);
    }
  }
  return s;
}

lsmlab::Status BenchEnv::LinkFile(const std::string& src,
                                  const std::string& target) {
  lsmlab::Status s = base_->LinkFile(src, target);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(names_mu_);
    auto it = names_.find(src);
    if (it != names_.end()) {
      names_[target] = it->second;
    }
  }
  return s;
}

lsmlab::Status BenchEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<lsmlab::SequentialFile>* result) {
  std::unique_ptr<lsmlab::SequentialFile> file;
  lsmlab::Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracedSequentialFile>(
        std::move(file), tracer_, KindOfFile(fname), Content(fname));
  }
  return s;
}

lsmlab::Status BenchEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<lsmlab::RandomAccessFile>* result) {
  std::unique_ptr<lsmlab::RandomAccessFile> file;
  lsmlab::Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracedRandomAccessFile>(
        std::move(file), tracer_, KindOfFile(fname), Content(fname));
  }
  return s;
}

lsmlab::Status BenchEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<lsmlab::WritableFile>* result) {
  std::unique_ptr<lsmlab::WritableFile> file;
  lsmlab::Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    auto content = std::make_shared<FileContent>(this);
    {
      std::lock_guard<std::mutex> lock(names_mu_);
      names_[fname] = content;
    }
    *result = std::make_unique<TracedWritableFile>(
        std::move(file), this, KindOfFile(fname), std::move(content));
  }
  return s;
}

void BenchEnv::MultiRead(lsmlab::ReadRequest* reqs, size_t n) {
  std::vector<lsmlab::ReadRequest> shadow(reqs, reqs + n);
  FileKind kind = FileKind::kOther;
  for (size_t i = 0; i < n; ++i) {
    auto* wrapped = dynamic_cast<TracedRandomAccessFile*>(reqs[i].file);
    if (wrapped == nullptr) {
      // A file not opened through this env: the per-file grouping reaches
      // TracedRandomAccessFile::MultiRead for the files that are ours.
      lsmlab::Env::MultiRead(reqs, n);
      return;
    }
    shadow[i].file = wrapped->target();
    kind = wrapped->kind();
  }
  uint64_t start = tracer_->enabled() ? NowNanos() : 0;
  base_->MultiRead(shadow.data(), n);
  for (size_t i = 0; i < n; ++i) {
    reqs[i].result = shadow[i].result;
    reqs[i].status = shadow[i].status;
  }
  if (start != 0) {
    tracer_->RecordCall(Call::kMultiRead, kind, start, n);
  }
}

// ---------------------------------------------------------------------------
// TracedFilterPolicy

void TracedFilterPolicy::CreateFilter(const lsmlab::Slice* keys, int n,
                                      std::string* dst) const {
  if (!tracer_->enabled()) {
    base_->CreateFilter(keys, n, dst);
    return;
  }
  uint64_t start = NowNanos();
  base_->CreateFilter(keys, n, dst);
  tracer_->RecordCall(Call::kFilterBuild, FileKind::kTable, start,
                      static_cast<uint64_t>(n));
}

bool TracedFilterPolicy::KeyMayMatch(const lsmlab::Slice& key,
                                     const lsmlab::Slice& filter) const {
  if (!tracer_->enabled()) {
    return base_->KeyMayMatch(key, filter);
  }
  uint64_t start = NowNanos();
  bool may_match = base_->KeyMayMatch(key, filter);
  tracer_->RecordCall(Call::kFilterProbe, FileKind::kTable, start,
                      may_match ? 0 : 1);
  return may_match;
}

}  // namespace perfbench
