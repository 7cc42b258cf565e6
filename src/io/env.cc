#include "io/env.h"

#include <utility>
#include <vector>

namespace lsmlab {

void RandomAccessFile::MultiRead(ReadRequest* reqs, size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    reqs[i].status = Read(reqs[i].offset, reqs[i].len, &reqs[i].result,
                          reqs[i].scratch);
  }
}

void Env::MultiRead(ReadRequest* reqs, size_t n) {
  if (n == 1 && reqs[0].file != nullptr) {
    reqs[0].file->MultiRead(reqs, 1);  // One file: nothing to group.
    return;
  }
  // Group by file in order of first appearance. Batches are small (tens of
  // requests), so a linear scan beats a hash map.
  std::vector<std::pair<RandomAccessFile*, std::vector<size_t>>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].file == nullptr) {
      reqs[i].status = Status::InvalidArgument("ReadRequest without a file");
      continue;
    }
    bool found = false;
    for (auto& g : groups) {
      if (g.first == reqs[i].file) {
        g.second.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.emplace_back(reqs[i].file, std::vector<size_t>{i});
    }
  }
  std::vector<ReadRequest> batch;
  for (auto& g : groups) {
    if (g.second.size() == 1) {
      g.first->MultiRead(&reqs[g.second[0]], 1);
      continue;
    }
    batch.clear();
    for (size_t idx : g.second) {
      batch.push_back(reqs[idx]);
    }
    g.first->MultiRead(batch.data(), batch.size());
    for (size_t k = 0; k < g.second.size(); ++k) {
      reqs[g.second[k]].result = batch[k].result;
      reqs[g.second[k]].status = batch[k].status;
    }
  }
}

void RandomAccessFileWrapper::MultiRead(ReadRequest* reqs, size_t n) const {
  std::vector<const RandomAccessFileWrapper*> files(n, this);
  owner_->RunBatch(files.data(), reqs, n, target_.get());
}

void EnvWrapper::MultiRead(ReadRequest* reqs, size_t n) {
  std::vector<const RandomAccessFileWrapper*> files(n);
  for (size_t i = 0; i < n; ++i) {
    files[i] = dynamic_cast<const RandomAccessFileWrapper*>(reqs[i].file);
    if (files[i] == nullptr || files[i]->owner() != this) {
      Env::MultiRead(reqs, n);
      return;
    }
  }
  RunBatch(files.data(), reqs, n, nullptr);
}

bool EnvWrapper::BeforeBatchRead(const RandomAccessFileWrapper& /*file*/,
                                 ReadRequest* /*req*/) {
  return true;
}

void EnvWrapper::AfterBatchRead(const RandomAccessFileWrapper* const* /*files*/,
                                ReadRequest* /*reqs*/, size_t /*n*/) {}

void EnvWrapper::RunBatch(const RandomAccessFileWrapper* const* files,
                          ReadRequest* reqs, size_t n,
                          const RandomAccessFile* file_target) {
  // The target sees copies re-pointed at the wrapped files, so the
  // caller's requests keep naming the wrappers.
  std::vector<ReadRequest> pass;
  std::vector<size_t> pass_idx;
  pass.reserve(n);
  pass_idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!BeforeBatchRead(*files[i], &reqs[i])) {
      continue;
    }
    pass.push_back(reqs[i]);
    pass.back().file = files[i]->target();
    pass_idx.push_back(i);
  }
  if (!pass.empty()) {
    if (file_target != nullptr) {
      file_target->MultiRead(pass.data(), pass.size());
    } else {
      target_->MultiRead(pass.data(), pass.size());
    }
  }
  for (size_t k = 0; k < pass.size(); ++k) {
    reqs[pass_idx[k]].result = pass[k].result;
    reqs[pass_idx[k]].status = pass[k].status;
  }
  AfterBatchRead(files, reqs, n);
}

Status Env::LinkFile(const std::string& src, const std::string& target) {
  // Copy fallback: correct (the two names never alias mutable state — link
  // callers only hand over immutable files) but pays the full byte copy.
  // Real substrates override with a true hard link.
  if (FileExists(target)) {
    return Status::IOError(target, "already exists");
  }
  std::string contents;
  Status s = ReadFileToString(this, src, &contents);
  if (!s.ok()) {
    return s;
  }
  return WriteStringToFile(this, contents, target);
}

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static constexpr size_t kBufferSize = 64 << 10;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) {
      break;
    }
  }
  return s;
}

Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    // Best-effort cleanup of the partially written file; the write error
    // is what the caller needs to see.
    (void)env->RemoveFile(fname);
  }
  return s;
}

}  // namespace lsmlab
