#ifndef LSMLAB_DB_INTERNAL_ITERATORS_H_
#define LSMLAB_DB_INTERNAL_ITERATORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "memtable/memtable.h"
#include "table/concatenating_iterator.h"
#include "table/iterator.h"
#include "table/table_reader.h"
#include "version/version_edit.h"

namespace lsmlab {

/// Adapts MemTable::Iterator to the common Iterator interface, sharing
/// ownership of the memtable so flushed memtables stay alive under readers.
class MemTableIteratorAdapter final : public Iterator {
 public:
  explicit MemTableIteratorAdapter(std::shared_ptr<MemTable> mem)
      : mem_(std::move(mem)), iter_(mem_->NewIterator()) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return Status::OK(); }

 private:
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<MemTable::Iterator> iter_;
};

/// Wraps a TableReader iterator together with the shared reader, so tables
/// evicted mid-scan (their file deleted by compaction) stay readable until
/// the scan drains.
class TableIteratorHolder final : public Iterator {
 public:
  TableIteratorHolder(std::shared_ptr<TableReader> reader,
                      std::unique_ptr<Iterator> iter)
      : reader_(std::move(reader)), iter_(std::move(iter)) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<TableReader> reader_;
  std::unique_ptr<Iterator> iter_;
};

/// One leveled level (its files are disjoint and sorted by key) read as a
/// single sorted run: one merge child per level instead of one per file.
/// Seek binary-searches the files' largest internal keys, as LevelDB's
/// FindFile does, and opens a table iterator only for the file it lands
/// on; Next opens the following file when the current one runs out.
///
/// The iterator does not pin the Version it was built from, so a live scan
/// never delays obsolete-file deletion: the readers of every file are
/// resolved up front (an open table stays readable after its file is
/// deleted) and the file boundaries are copied.
class LevelIterator final : public ConcatenatingIterator {
 public:
  LevelIterator(const InternalKeyComparator* icmp,
                const ReadOptions& read_options,
                const std::vector<FileMetaData>& files,
                std::vector<std::shared_ptr<TableReader>> readers)
      : ConcatenatingIterator(files.size()),
        icmp_(icmp),
        read_options_(read_options),
        readers_(std::move(readers)) {
    bound_ends_.reserve(files.size());
    for (const auto& f : files) {
      const Slice largest = f.largest.Encode();
      largest_keys_.append(largest.data(), largest.size());
      bound_ends_.push_back(static_cast<uint32_t>(largest_keys_.size()));
    }
  }

 private:
  size_t FindChild(const Slice& target) const override {
    size_t lo = 0;
    size_t hi = readers_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (icmp_->Compare(LargestKey(mid), target) < 0) {
        lo = mid + 1;  // Every key of file mid is < target.
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  Iterator* OpenChild(size_t index) override {
    if (open_ == nullptr || open_index_ != index) {
      open_ = readers_[index]->NewIterator(read_options_);
      open_index_ = index;
    }
    return open_.get();
  }

  Slice LargestKey(size_t index) const {
    const uint32_t begin = index == 0 ? 0 : bound_ends_[index - 1];
    return Slice(largest_keys_.data() + begin, bound_ends_[index] - begin);
  }

  const InternalKeyComparator* const icmp_;
  const ReadOptions read_options_;
  const std::vector<std::shared_ptr<TableReader>> readers_;
  std::string largest_keys_;         // Files' largest keys, back to back.
  std::vector<uint32_t> bound_ends_;  // End offset of each in largest_keys_.
  std::unique_ptr<Iterator> open_;   // Table iterator of file open_index_.
  size_t open_index_ = 0;
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_INTERNAL_ITERATORS_H_
